package server

import (
	"context"

	"scdb"
	"scdb/internal/er"
	"scdb/internal/model"
	"scdb/internal/obs"
	"scdb/internal/storage"
)

// Engine is the execution surface the server fronts: everything the wire
// ops need from a backend. *scdb.DB satisfies it — the single-node server
// — and so does the shard router's engine, which fans the same operations
// out over a cluster of scdb-server shards. Optional surfaces (storage
// stats, replication sourcing, ER digest export, sharding stats, extra
// gauges) are discovered via the capability interfaces below, so a
// backend only answers for what it actually has and the server degrades
// gracefully — a stats op against a router simply omits the WAL section,
// and a replica subscribing to a router is rejected with a clear error.
type Engine interface {
	// CSN is the backend's commit stamp: a read at this stamp sees every
	// committed write. The router reports the sum of its shards' stamps,
	// which is equally monotone.
	CSN() uint64
	QueryBatchesCtx(ctx context.Context, q string, emit func(cols []string, batch [][]model.Value) bool) ([]string, *scdb.QueryInfo, error)
	Explain(q string) (*scdb.QueryInfo, error)
	IngestCtx(ctx context.Context, src scdb.Source) error
	Stats() scdb.Stats
}

// Capability interfaces, asserted against Config.DB.

// enginePlanCache exposes the plan cache (single-node engines).
type enginePlanCache interface {
	PlanCacheStats() scdb.PlanCacheStats
}

// engineIndexes exposes the self-curated secondary indexes.
type engineIndexes interface {
	IndexStats() []scdb.IndexStat
}

// engineWAL exposes the durability log's counters.
type engineWAL interface {
	WALStats() scdb.WALStats
}

// replSource is the surface a primary needs to serve replication
// subscriptions: direct store access for WAL tailing and snapshots. A
// backend without it (the shard router) rejects V2OpReplSubscribe —
// replicas subscribe to individual shard primaries, not to the router.
type replSource interface {
	ReadOnly() bool
	Store() *storage.Store
	Checkpoint() error
	WALStats() scdb.WALStats
}

// erDigestSource answers the er_digests op: incremental export of the
// local resolver's entities and matches for the router's cross-shard
// exchange.
type erDigestSource interface {
	ERDigests(entsSince, matchesSince int) er.DigestBatch
}

// shardingStatser supplies the sharding section of the stats op (the
// router's engine implements it; single-node engines do not).
type shardingStatser interface {
	ShardingStats() *WireShardingStats
}

// gaugeRegistrar lets a backend fold its own gauges (router.*, shard.*)
// into the server's metrics registry at startup.
type gaugeRegistrar interface {
	RegisterGauges(reg *obs.Registry)
}

// replCapable reports whether the backend can source replication.
func (s *Server) replCapable() (replSource, bool) {
	rs, ok := s.cfg.DB.(replSource)
	return rs, ok
}
