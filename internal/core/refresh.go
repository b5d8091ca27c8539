package core

// Read-replica support: the read-only gate and the derived-layer refresh.
//
// A replica's instance layer advances continuously as replicated WAL
// frames are applied directly to the store, below the engine. The relation
// and semantic layers (graph, ontology, reasoner, claim worlds with their
// richness weights) are derived state: they are rebuilt wholesale by RefreshDerived rather than
// maintained incrementally, because the curation pipeline's incremental
// paths assume they observed every record exactly once at ingest time.
// SELECT-style reads over the instance layer are therefore always fresh
// (MVCC at the applied watermark); entity/ontology-aware answers are as
// fresh as the last refresh.

import "errors"

// ErrReadOnly rejects writes against a read replica; route them to the
// primary instead.
var ErrReadOnly = errors.New("core: read-only replica: writes must go to the primary")

// ReadOnly reports whether the engine was opened as a read replica.
func (db *DB) ReadOnly() bool { return db.opts.ReadOnly }

// RefreshDerived rebuilds the relation and semantic layers from the
// instance layer and swaps them in atomically. The rebuild runs under
// ingestMu only — queries keep executing against the old layers — and the
// swap takes db.mu exclusively, which waits out in-flight readers (every
// query holds the read lock end to end), so no statement ever observes a
// half-swapped engine.
func (db *DB) RefreshDerived() error {
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	db.mu.RLock()
	closed := db.closed
	db.mu.RUnlock()
	if closed {
		return nil
	}
	d, err := buildDerived(db.store, db.opts)
	if err != nil {
		return err
	}

	db.mu.Lock()
	db.derived = d
	// The fresh graph, ontology and reasoner count from 0 again, so the
	// cache's version restarts with them.
	db.matCache.InvalidateAll()
	// The fresh ontology's version counter can collide with a stale plan
	// key's, so version keying alone cannot age those plans out.
	db.plans.Clear()
	db.mu.Unlock()

	db.csrMu.Lock()
	db.csr = nil
	db.csrMu.Unlock()
	db.tpMu.Lock()
	db.tp, db.tpVer = nil, 0
	db.tpMu.Unlock()
	return nil
}
