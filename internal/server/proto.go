package server

import (
	"errors"

	"scdb"
)

// DefaultMaxFrame bounds a single frame's payload (8 MiB).
const DefaultMaxFrame = 8 << 20

// ErrFrameTooLarge reports an incoming frame above the receiver's limit.
var ErrFrameTooLarge = errors.New("frame exceeds size limit")

// Op names: the labels of the per-op metrics and the slow-op log
// (v2OpName maps frame op codes onto them).
const (
	OpPing  = "ping"
	OpQuery = "query"
	OpStats = "stats"
	// OpIngestBatch is the one ingest op. It streams one source delivery
	// as a sequence of chunk frames following the request header, which
	// carries only the source name; each chunk installs as one batched
	// delivery to that source, and the whole stream holds a single
	// admission slot. The final chunk sets Done and conventionally carries
	// the links and texts, after every entity chunk, so cross-chunk
	// references resolve without retries; a source sent whole is that one
	// final chunk.
	OpIngestBatch = "ingest_batch"
	// OpMetrics answers with the server's full metrics registry rendered
	// as sorted "name value" text.
	OpMetrics = "metrics"
	// OpSlowLog answers with the slow-op ring log (SlowLogReply): the most
	// recent operations that crossed the server's threshold.
	OpSlowLog = "slowlog"
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
)

// SlowLogReply is the slowlog response body.
type SlowLogReply struct {
	// ThresholdUS is the recording threshold; zero when the log is
	// disabled.
	ThresholdUS int64 `json:"threshold_us"`
	// Total counts every slow op recorded over the server's lifetime,
	// including entries the ring has evicted.
	Total uint64 `json:"total"`
	// Entries are the retained slow ops, oldest first.
	Entries []WireSlowEntry `json:"entries,omitempty"`
}

// WireSlowEntry is one slow operation on the wire.
type WireSlowEntry struct {
	Op     string `json:"op"`
	Detail string `json:"detail,omitempty"`
	Start  string `json:"start"` // RFC3339Nano
	DurUS  int64  `json:"dur_us"`
	Err    string `json:"err,omitempty"`
}

// IngestSummary reports a completed ingest_batch stream.
type IngestSummary struct {
	// Batches is the number of non-empty chunks installed.
	Batches int `json:"batches"`
	// Rows is the number of entity records installed.
	Rows int `json:"rows"`
	// ElapsedUS spans the first chunk read to the last install.
	ElapsedUS int64 `json:"elapsed_us"`
	// RowsPerSec is Rows over the elapsed wall clock.
	RowsPerSec float64 `json:"rows_per_sec"`
	// CSN is the commit stamp after the last installed chunk.
	CSN uint64 `json:"csn,omitempty"`
}

// StatsReply is the Stats response body: the engine snapshot plus the
// service layer's own live metrics.
type StatsReply struct {
	Engine    scdb.Stats          `json:"engine"`
	Indexes   []scdb.IndexStat    `json:"indexes,omitempty"`
	PlanCache scdb.PlanCacheStats `json:"plan_cache"`
	Server    ServerStats         `json:"server"`
	// Repl is present once the node participates in replication: a primary
	// reports its connected followers, a replica its applied watermark and
	// lag behind the primary.
	Repl *WireReplStats `json:"repl,omitempty"`
	// Sharding is present when the backend is a shard router: cluster
	// topology and cross-shard curation counters.
	Sharding *WireShardingStats `json:"sharding,omitempty"`
}

// WireShardingStats and WireShardNode are the stats op's sharding section.
// The types live in the facade because Engine, which *scdb.DB implements,
// returns them.
type (
	WireShardingStats = scdb.ShardingStats
	WireShardNode     = scdb.ShardNode
)

// WireReplStats reports replication state in the stats op.
type WireReplStats struct {
	// Role is "primary" (has or had subscribed followers) or "replica".
	Role string `json:"role"`
	// DurableCSN/AllocatedCSN mirror WALStats on this node.
	DurableCSN   uint64 `json:"durable_csn"`
	AllocatedCSN uint64 `json:"allocated_csn"`
	// Followers lists the primary's live subscriptions.
	Followers []WireFollowerStat `json:"followers,omitempty"`
	// AppliedCSN is a replica's applied watermark (equal to AllocatedCSN).
	AppliedCSN uint64 `json:"applied_csn,omitempty"`
	// LagCSN/LagSeconds: a replica's distance behind the last primary
	// watermark it has seen, and how stale that sighting is.
	LagCSN     uint64  `json:"lag_csn"`
	LagSeconds float64 `json:"lag_seconds"`
}

// WireFollowerStat is one follower subscription as seen by the primary.
type WireFollowerStat struct {
	Remote string `json:"remote"`
	// SentCSN is the last shipped watermark; AckCSN the follower's last
	// acknowledged applied CSN; LagCSN the primary clock minus AckCSN.
	SentCSN  uint64 `json:"sent_csn"`
	AckCSN   uint64 `json:"ack_csn"`
	LagCSN   uint64 `json:"lag_csn"`
	LagBytes uint64 `json:"lag_bytes"`
}
