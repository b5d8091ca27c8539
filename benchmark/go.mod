// The benchmark is a module of its own because the driver requires a
// compiled benchmark to bring its own build file; the root's go test ./...
// therefore does not run its smoke test (cd benchmark && go test ./...).
// The module path sits under scdb/ so that it may import the repository's
// internal packages.
module scdb/benchmark

go 1.23

require scdb v0.0.0

replace scdb => ../
