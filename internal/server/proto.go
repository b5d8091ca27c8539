package server

import "errors"

// DefaultMaxFrame bounds a single frame's payload (8 MiB).
const DefaultMaxFrame = 8 << 20

// ErrFrameTooLarge reports an incoming frame above the receiver's limit.
var ErrFrameTooLarge = errors.New("frame exceeds size limit")

// Op names: the labels of the per-op metrics and the slow-op log
// (v2OpName maps frame op codes onto them).
const (
	OpPing  = "ping"
	OpQuery = "query"
	// OpIngestBatch is the one ingest op. It streams one source delivery
	// as a sequence of chunk frames following the request header, which
	// carries only the source name; each chunk installs as one batched
	// delivery to that source, and the whole stream holds a single
	// admission slot. The final chunk sets Done and conventionally carries
	// the links and texts, after every entity chunk, so cross-chunk
	// references resolve without retries; a source sent whole is that one
	// final chunk.
	OpIngestBatch = "ingest_batch"
	// OpERDigests exports the node's incremental ER evidence past the
	// request's entity and match watermarks. The shard router pulls these
	// after routed ingests to run the cross-shard entity-resolution
	// exchange; backends without a local resolver reject the op with
	// CodeBadRequest.
	OpERDigests = "er_digests"
)

// Error codes carried in error frames.
const (
	CodeBusy       = "busy"        // admission control shed the request
	CodeDeadline   = "deadline"    // the request deadline expired
	CodeCanceled   = "canceled"    // the request context was canceled
	CodeBadRequest = "bad_request" // malformed request
	CodeQuery      = "query"       // the engine rejected the statement
	CodeShutdown   = "shutdown"    // the server is draining
	CodeReadOnly   = "read_only"   // this node is a read replica; write to the primary
	// CodeInvalidDelivery: the engine refused an ingest before writing any
	// of it (scdb.ErrInvalidDelivery).
	CodeInvalidDelivery = "invalid_delivery"
)

// IngestSummary reports a completed ingest_batch stream.
type IngestSummary struct {
	// Batches is the number of non-empty chunks installed.
	Batches int
	// Rows is the number of entity records installed.
	Rows int
	// ElapsedUS spans the first chunk read to the last install.
	ElapsedUS int64
	// RowsPerSec is Rows over the elapsed wall clock.
	RowsPerSec float64
	// CSN is the commit stamp after the last installed chunk.
	CSN uint64
}

// StatsReply is Server.Stats' snapshot: the service layer's live
// counters, typed, for an in-process probe. A probe of a saturated server
// reads it, because a sys.metrics statement would count itself in flight;
// everything else a node knows about itself is its sys.* relations.
type StatsReply struct {
	Server ServerStats
}

// WireShardingStats is a shard router's cluster view, the source of its
// sys.shards relation and its router.* and shard.* gauges.
type WireShardingStats struct {
	// Shards is the cluster width; records route to shard
	// hash(key) mod Shards.
	Shards int
	// ScatterQueries counts queries fanned out to every shard;
	// PartialRows the per-shard partial result rows merged router-side.
	ScatterQueries uint64
	PartialRows    uint64
	// RoutedRows counts ingested entity records split across shards.
	RoutedRows uint64
	// ExchangeRounds counts cross-shard ER digest exchanges; Digests the
	// entity digests pulled; CrossComparisons the candidate pairs scored
	// router-side; CrossMerges the accepted merges joining entities that
	// live on different shards.
	ExchangeRounds   uint64
	Digests          uint64
	CrossComparisons uint64
	CrossMerges      uint64
	// Nodes lists the shards in routing order.
	Nodes []WireShardNode
}

// WireShardNode is one shard as seen by the router.
type WireShardNode struct {
	Addr string
	// LastCSN is the highest commit stamp the router has observed from
	// this shard (its read-your-writes floor).
	LastCSN uint64
	// Entities is the shard's local entity count from the router's last
	// poll (Router.Stats or a sys.shards read); zero until then.
	Entities int
}

// WireReplStats is a node's replication state, the source of its repl.*
// gauges and sys.replicas.
type WireReplStats struct {
	// Followers lists the primary's live subscriptions.
	Followers []WireFollowerStat
	// LagCSN/LagSeconds: a replica's distance behind the last primary
	// watermark it has seen, and how stale that sighting is; on a primary,
	// LagCSN is its furthest follower's.
	LagCSN     uint64
	LagSeconds float64
}

// WireFollowerStat is one follower subscription as seen by the primary.
type WireFollowerStat struct {
	Remote string
	// SentCSN is the last shipped watermark; AckCSN the follower's last
	// acknowledged applied CSN; LagCSN the primary clock minus AckCSN.
	SentCSN  uint64
	AckCSN   uint64
	LagCSN   uint64
	LagBytes uint64
}
