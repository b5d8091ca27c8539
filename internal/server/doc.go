// Package server is the network service layer: a TCP server speaking the
// binary frame protocol of wire2.go over an embedded scdb.DB. Sessions
// are handled concurrently over MVCC snapshots; every request carries a
// deadline that is threaded as a context.Context down through the morsel
// executor and the storage scans, so a canceled or disconnected client
// stops consuming worker time within one morsel boundary. Admission
// control bounds the number of in-flight statements with a fair FIFO wait
// queue and sheds load with a typed "server busy" error.
//
// # Observability
//
// The server is the export point of the engine's obs layer:
//
//   - TRACE statements ("TRACE SELECT ...") execute normally but answer
//     with a hierarchical span tree instead of rows — frame decode,
//     admission wait, planning (with plan-cache outcome), and the morsel
//     executor's per-operator profile. Ingest requests opt in with
//     their trace flag, which adds the curation pipeline's stage spans
//     (decode, batch install with WAL fsync wait, relation/ER,
//     integration, inference) to the response.
//   - Every instrument — per-op latency histograms, admission counters,
//     ingest throughput, plan-cache, WAL, and index gauges — lives in one
//     obs.Registry; the "metrics" op (and the debug listener's /metrics)
//     dumps it as stable sorted text, and the "stats" op renders the same
//     state as structured JSON.
//   - Requests at or above Config.SlowOpThreshold land in a ring-buffer
//     slow-op log, queryable with the "slowlog" op.
//   - DebugHandler serves /metrics, /slowlog, pprof, and expvar over
//     HTTP for an opt-in listener (scdb-server's -debug-addr).
package server
