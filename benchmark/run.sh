#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# driver's arguments. Everything go writes (build cache, binary) goes under
# .bench_build in the checkout root, and the benchmark's own scratch space
# under .bench_work; nothing outside the checkout is touched.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$here" && go build -o "$build/scdb-benchmark" .)
exec "$build/scdb-benchmark" -root "$root" "$@"
