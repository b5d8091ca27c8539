package server

import (
	"context"

	"scdb"
	"scdb/internal/er"
	"scdb/internal/model"
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
	QueryBatchesCtx(ctx context.Context, q string, emit func(cols []string, batch [][]model.Value) bool) ([]string, *scdb.QueryInfo, error)
	IngestCtx(ctx context.Context, src scdb.Source) error
	Stats() scdb.Stats
	// ShardingStats is the stats op's sharding section and the source of
	// the router.* and shard.* gauges. A single node answers nil.
	ShardingStats() *WireShardingStats
}

// Node is what the service layer needs from a backend that owns a local
// store: the storage-level stats sections and gauges, replication sourcing
// (WAL tailing and snapshots read the store directly), and the er_digests
// export of the local resolver. server.New resolves it once; a backend
// that is not a Node (the shard router) omits those stats sections and
// refuses repl_subscribe and er_digests with a typed error — replicas
// follow individual shard primaries, not the router.
type Node interface {
	PlanCacheStats() scdb.PlanCacheStats
	IndexStats() []scdb.IndexStat
	WALStats() scdb.WALStats
	ReadOnly() bool
	Store() *storage.Store
	Checkpoint() error
	ERDigests(entsSince, matchesSince int) er.DigestBatch
}
