package server

import (
	"context"

	"scdb"
	"scdb/internal/curate"
	"scdb/internal/er"
	"scdb/internal/obs"
	"scdb/internal/query"
	"scdb/internal/storage"
)

// Engine is the execution surface the server fronts: everything every wire
// op needs from a backend. *scdb.DB satisfies it — the single-node server
// — and so does the shard router, which fans the same operations out over
// a cluster of scdb-server shards. Both backends answer the whole
// interface; what only a backend with a local store can answer is the
// Node interface below.
type Engine interface {
	// CSN is the backend's commit stamp: a read at this stamp sees every
	// committed write. The router reports the sum of its shards' stamps,
	// which is equally monotone.
	CSN() uint64
	// QueryBatchesCtx hands a statement's rows to sink (a request is its
	// own) and its info back by value, so neither costs the request an object.
	QueryBatchesCtx(ctx context.Context, q string, sink query.BatchSink) ([]string, scdb.QueryInfo, error)
	// IngestDelivery curates one delivery as the stream decoded it
	// (DecodeV2Arrivals): its attribute maps are the backend's from here
	// on.
	IngestDelivery(ctx context.Context, d curate.Delivery) error
	// Registry is the node's self-description, which FROM sys.<name>
	// reads; the server registers its own instruments and tables into it.
	Registry() *obs.Registry
}

// Node is what the service layer needs from a backend that owns a local
// store: replication sourcing (WAL tailing and snapshots read the store
// directly, WALStats the stamps replication reports) and the er_digests
// export of the local resolver. server.New resolves it once; a backend
// that is not a Node (the shard router) has no sys.replicas or repl.*
// gauges, and refuses repl_subscribe and er_digests with a typed error —
// replicas follow individual shard primaries, not the router.
type Node interface {
	WALStats() scdb.WALStats
	ReadOnly() bool
	Store() *storage.Store
	Checkpoint() error
	ERDigests(entsSince, matchesSince int) er.DigestBatch
}
