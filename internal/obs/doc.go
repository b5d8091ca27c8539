// Package obs is the engine's observability kernel: hierarchical request
// tracing, a metrics registry, and a slow-operation ring log. It is the
// single surface every layer reports through — the server's request
// lifecycle, the planner, the morsel executor's operator profile, the
// curation pipeline's ingest stages, and the WAL's durability counters all
// land here. A node describes itself through it: SCQL reads its registry
// as the sys.* system relations, TRACE statements answer with span trees,
// and the optional debug HTTP listener serves /metrics, /slowlog, pprof
// and expvar.
//
// # Tracing
//
// A Trace is a tree of Spans rooted at one request. Traces are explicitly
// opt-in per request: code on the hot path asks the context for a trace
// with FromContext, which returns nil when the request is not being
// traced, and every Trace and Span method is a no-op on a nil receiver.
// The disabled path therefore costs one context lookup and a nil check —
// no allocation, no atomics, no locks — which is asserted by
// testing.AllocsPerRun in the package tests. Span timestamps are recorded
// relative to the trace's start so a rendered trace is self-contained.
//
// Spans form a tree: Child starts a nested live span, ChildDur attaches an
// already-measured phase (used for operator busy time aggregated across
// workers, where wall-clock nesting is not meaningful), and attributes
// carry counters such as rows, morsels, and cache hits. Rendering with
// JSON produces a stable, indented document whose layout OPERATIONS.md
// specifies.
//
// # Metrics
//
// A Registry is a flat, name-keyed set of counters (monotonic),
// gauges (sampled at read time via callback), and log2 histograms, and of
// row tables a caller registers (Table). Relation answers a system
// relation: sys.metrics lists every instrument as a (name, value) row in
// name order, and any other name is a registered table. Dump renders the
// instruments as "name value" lines in the same order, so two dumps of the
// same state are byte-identical — the debug listener's /metrics body.
// Histogram is a fixed-size power-of-two-bucket histogram (the same shape
// the service layer always used for latencies); it is internally
// synchronized and safe for concurrent observers.
//
// # Slow-op log
//
// SlowLog is a bounded ring of the most recent operations that crossed a
// duration threshold. Recording is lock-cheap and eviction is implicit
// (the ring overwrites oldest-first), so it can stay enabled in
// production; the service layer exposes it as sys.slowlog.
package obs
