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
//     ingest throughput, the slow-op count — lives in the node's one
//     obs.Registry, the engine's (Engine.Registry), beside the engine's
//     own plan-cache, WAL, index and curation gauges. SCQL reads it:
//     FROM sys.metrics lists every instrument, and the server adds the
//     tables sys.slowlog and, over a local store, sys.replicas. A sys.*
//     read is an ordinary statement through the query op, admitted like
//     one. Server.Stats renders the same instruments as a typed snapshot.
//   - Requests at or above Config.SlowOpThreshold land in a ring-buffer
//     slow-op log, which sys.slowlog reads.
//   - DebugHandler serves /metrics, /slowlog, pprof, and expvar over
//     HTTP for an opt-in listener (scdb-server's -debug-addr), which skips
//     admission: the view of a saturated node.
package server
