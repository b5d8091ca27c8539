package scdb

// Service-layer plumbing. These accessors exist for internal/server
// (primary-side WAL shipping, the Engine and Node interfaces),
// internal/repl (the follower) and internal/shard (the router), which
// operate on the instance layer beneath the curation pipeline.
// Application code should not need them.

import (
	"scdb/internal/core"
	"scdb/internal/er"
	"scdb/internal/storage"
)

// ErrReadOnly rejects writes against a read replica (Options.ReadOnly);
// route them to the primary.
var ErrReadOnly = core.ErrReadOnly

// ReadOnly reports whether the database was opened as a read replica.
func (db *DB) ReadOnly() bool { return db.inner.ReadOnly() }

// CSN returns the current commit stamp. A read at this stamp sees every
// committed mutation; on a replica it is the applied replication watermark.
func (db *DB) CSN() uint64 { return uint64(db.inner.Store().Now()) }

// Store exposes the instance layer for the replication plumbing (WAL
// tailing on the primary, replicated apply on a follower).
func (db *DB) Store() *storage.Store { return db.inner.Store() }

// ReplApply installs replicated WAL frames and publishes watermark as the
// commit clock. Follower-side only; the caller must be the store's sole
// writer. See storage.Store.ApplyRepl.
func (db *DB) ReplApply(entries []storage.ReplEntry, watermark uint64) error {
	return db.inner.Store().ApplyRepl(entries, storage.CSN(watermark))
}

// RefreshDerived rebuilds the relation and semantic layers (graph,
// ontology, reasoner, claim worlds) from the instance layer and swaps them
// in atomically. A follower calls this periodically: instance-layer reads
// are always fresh via MVCC, while entity- and ontology-aware answers are
// as fresh as the last refresh.
func (db *DB) RefreshDerived() error { return db.inner.RefreshDerived() }

// ERDigests exports the incremental cross-shard ER evidence past the given
// watermarks: the entities this node's resolver has indexed and the
// duplicate pairs it has accepted. The shard router pulls these after
// routed ingests and feeds them to an er.Exchange so entities on
// different shards still merge. Plumbing for internal/server and
// internal/shard; application code should not need it.
func (db *DB) ERDigests(entsSince, matchesSince int) er.DigestBatch {
	return db.inner.ERDigests(entsSince, matchesSince)
}
