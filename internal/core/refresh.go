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
//
// A rebuilt set's counters start again, but its clocks do not: the set
// carries a base, the retiring set's full clock + 1, that every clock over
// the derived layers adds (derived.clock, enrichmentVersion, the plan
// key's ontology component), and its memos start empty with it. So a
// refresh only builds and swaps: no cache is dropped by hand, and a
// transaction that read the semantic layers sees the rebuild as enrichment
// moving on (FS.11), even when the rebuild has fewer edges to count.

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
// half-swapped engine. The new set's base is the retiring set's clock + 1,
// read under that lock, and its memos start empty, so nothing computed
// over the old set is served over the new one.
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
	d.base = db.clock() + 1
	db.derived = d
	db.mu.Unlock()
	return nil
}
