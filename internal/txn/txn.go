// Package txn implements transactions for the self-curating database
// (paper FS.11): snapshot isolation over the multi-versioned instance
// layer, extended to account for "non-determinism that is not the result
// of explicit update queries" — the relation and semantic layers change
// continuously through enrichment (entity resolution merges, inference,
// link prediction) even when no client writes.
//
// Two isolation levels are provided:
//
//   - Snapshot: classical snapshot isolation with first-committer-wins
//     write validation, PLUS enrichment-phantom detection: a transaction
//     that consulted the semantic layers (MarkSemanticRead) aborts at
//     commit if enrichment advanced since it began, because its semantic
//     reads are not repeatable. This is the strict reading of the paper's
//     question "could the classical isolation semantics ever be
//     satisfied?" — it can, at the price of aborts under churn.
//
//   - EventualEnrichment: the relaxed level the paper proposes ("pulled
//     and eventually received with uncertainty"): semantic reads never
//     abort; instead the commit reports a staleness bound — how many
//     enrichment versions passed the transaction by.
//
// A commit hands its write set to the store's one commit rule
// (storage.Store.Commit), the rule recovery and the follower replay the
// log with: one commit stamp, and one log frame for each table written. A
// crash therefore keeps a one-table transaction whole or drops it, but can
// keep one table's part of a multi-table transaction without the others'.
package txn

import (
	"errors"
	"fmt"
	"sync"

	"scdb/internal/model"
	"scdb/internal/storage"
)

// Level selects the isolation level.
type Level int

const (
	// Snapshot is snapshot isolation with enrichment-phantom aborts.
	Snapshot Level = iota
	// EventualEnrichment never aborts on enrichment churn; commits carry a
	// staleness bound instead.
	EventualEnrichment
)

// String names the level.
func (l Level) String() string {
	switch l {
	case Snapshot:
		return "snapshot"
	case EventualEnrichment:
		return "eventual-enrichment"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// ErrConflict is returned by Commit when a written row was modified by a
// concurrent committer (first-committer-wins).
var ErrConflict = errors.New("txn: write-write conflict")

// ErrEnrichmentPhantom is returned by Commit under Snapshot isolation when
// the semantic layers changed under a transaction that read them.
var ErrEnrichmentPhantom = errors.New("txn: enrichment phantom (semantic layers changed since snapshot)")

// ErrDone is returned when using a committed or aborted transaction.
var ErrDone = errors.New("txn: transaction already finished")

// Stats counts manager-wide outcomes.
type Stats struct {
	Commits          int
	WriteConflicts   int
	EnrichmentAborts int
}

// Manager coordinates transactions over one store. enrichVersion reports
// the current version of the enrichment state (typically graph.Version +
// ontology.Version); nil means "no semantic layers".
type Manager struct {
	store         *storage.Store
	enrichVersion func() uint64

	mu     sync.Mutex
	stats  Stats
	nextID uint64
	active map[uint64]storage.CSN // live transactions' read snapshots
}

// NewManager creates a transaction manager.
func NewManager(store *storage.Store, enrichVersion func() uint64) *Manager {
	return &Manager{store: store, enrichVersion: enrichVersion, active: map[uint64]storage.CSN{}}
}

// OldestSnapshot returns the oldest read snapshot among live transactions,
// or the store's current CSN when none are live — the safe horizon for
// version vacuuming.
func (m *Manager) OldestSnapshot() storage.CSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldest := m.store.Now()
	for _, csn := range m.active {
		if csn < oldest {
			oldest = csn
		}
	}
	return oldest
}

// Stats returns a copy of the outcome counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// writeKey identifies a written row.
type writeKey struct {
	table string
	id    storage.RowID
}

// writeOp is a buffered mutation.
type writeOp struct {
	rec      model.Record // nil = delete
	isInsert bool
}

// Txn is one transaction. Not safe for concurrent use by multiple
// goroutines (like database/sql's Tx).
type Txn struct {
	mgr          *Manager
	id           uint64
	level        Level
	readCSN      storage.CSN
	enrichStart  uint64
	semanticRead bool
	writes       map[writeKey]writeOp
	inserted     []writeKey // insertion order for deterministic apply
	done         bool
}

// Begin starts a transaction at the current snapshot.
func (m *Manager) Begin(level Level) *Txn {
	readCSN := m.store.Now()
	m.mu.Lock()
	m.nextID++
	id := m.nextID
	m.active[id] = readCSN
	m.mu.Unlock()
	t := &Txn{
		mgr:     m,
		id:      id,
		level:   level,
		readCSN: readCSN,
		writes:  map[writeKey]writeOp{},
	}
	if m.enrichVersion != nil {
		t.enrichStart = m.enrichVersion()
	}
	return t
}

// finish removes the transaction from the active set.
func (m *Manager) finish(id uint64) {
	m.mu.Lock()
	delete(m.active, id)
	m.mu.Unlock()
}

// ID returns the transaction's identifier.
func (t *Txn) ID() uint64 { return t.id }

// MarkSemanticRead records that the transaction consulted the relation or
// semantic layer (a reasoner call, a graph traversal, an ISA predicate).
// Under Snapshot isolation this arms enrichment-phantom validation.
func (t *Txn) MarkSemanticRead() { t.semanticRead = true }

// Get reads a row at the transaction's snapshot, overlaid with its own
// writes.
func (t *Txn) Get(table string, id storage.RowID) (model.Record, bool, error) {
	if t.done {
		return nil, false, ErrDone
	}
	if op, ok := t.writes[writeKey{table, id}]; ok {
		if op.rec == nil {
			return nil, false, nil
		}
		return op.rec, true, nil
	}
	tb, ok := t.mgr.store.Table(table)
	if !ok {
		return nil, false, fmt.Errorf("txn: unknown table %q", table)
	}
	rec, ok := tb.GetAt(id, t.readCSN)
	return rec, ok, nil
}

// Scan visits the table's rows at the snapshot, with own writes overlaid
// (own inserts appear after snapshot rows).
func (t *Txn) Scan(table string, fn func(storage.RowID, model.Record) bool) error {
	if t.done {
		return ErrDone
	}
	tb, ok := t.mgr.store.Table(table)
	if !ok {
		return fmt.Errorf("txn: unknown table %q", table)
	}
	stopped := false
	tb.ScanAt(t.readCSN, func(id storage.RowID, rec model.Record) bool {
		if op, ok := t.writes[writeKey{table, id}]; ok {
			if op.rec == nil {
				return true // deleted by self
			}
			rec = op.rec
		}
		if !fn(id, rec) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return nil
	}
	for _, k := range t.inserted {
		if k.table != table {
			continue
		}
		op := t.writes[k]
		if op.rec == nil || !op.isInsert {
			continue
		}
		if !fn(k.id, op.rec) {
			return nil
		}
	}
	return nil
}

// Insert buffers a new row and returns its ID. The ID is final: it is
// reserved from the table immediately (aborted transactions leave gaps,
// like any sequence), so callers may hold it across commit.
func (t *Txn) Insert(table string, rec model.Record) (storage.RowID, error) {
	if t.done {
		return 0, ErrDone
	}
	tb, err := t.mgr.store.EnsureTable(table)
	if err != nil {
		return 0, err
	}
	id := tb.ReserveID()
	k := writeKey{table, id}
	t.writes[k] = writeOp{rec: rec, isInsert: true}
	t.inserted = append(t.inserted, k)
	return id, nil
}

// Update buffers an overwrite of an existing (or self-inserted) row.
func (t *Txn) Update(table string, id storage.RowID, rec model.Record) error {
	if t.done {
		return ErrDone
	}
	k := writeKey{table, id}
	if op, ok := t.writes[k]; ok {
		if op.rec == nil {
			return fmt.Errorf("txn: update of row %d deleted in this transaction", id)
		}
		t.writes[k] = writeOp{rec: rec, isInsert: op.isInsert}
		return nil
	}
	if _, ok, err := t.Get(table, id); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("txn: update of unknown row %d in %q", id, table)
	}
	t.writes[k] = writeOp{rec: rec}
	return nil
}

// Delete buffers a row deletion.
func (t *Txn) Delete(table string, id storage.RowID) error {
	if t.done {
		return ErrDone
	}
	k := writeKey{table, id}
	if op, ok := t.writes[k]; ok {
		if op.rec == nil {
			return fmt.Errorf("txn: double delete of row %d", id)
		}
		if op.isInsert {
			delete(t.writes, k)
			return nil
		}
		t.writes[k] = writeOp{rec: nil}
		return nil
	}
	if _, ok, err := t.Get(table, id); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("txn: delete of unknown row %d in %q", id, table)
	}
	t.writes[k] = writeOp{rec: nil}
	return nil
}

// Abort discards the transaction.
func (t *Txn) Abort() {
	if !t.done {
		t.mgr.finish(t.id)
	}
	t.done = true
}

// CommitInfo reports a successful commit.
type CommitInfo struct {
	CSN storage.CSN
	// EnrichmentStaleness is how many enrichment versions advanced during
	// the transaction — 0 under Snapshot (it would have aborted), possibly
	// positive under EventualEnrichment.
	EnrichmentStaleness uint64
}

// Commit validates the write set and installs it under one commit stamp.
// Read-only Snapshot transactions with semantic reads still
// validate enrichment phantoms: repeatable reads are the point.
func (t *Txn) Commit() (CommitInfo, error) {
	if t.done {
		return CommitInfo{}, ErrDone
	}
	t.done = true
	return t.mgr.commit(t)
}

func (m *Manager) commit(t *Txn) (CommitInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.active, t.id)

	// Enrichment validation.
	var staleness uint64
	if m.enrichVersion != nil {
		now := m.enrichVersion()
		if now > t.enrichStart {
			staleness = now - t.enrichStart
		}
		if t.level == Snapshot && t.semanticRead && staleness > 0 {
			m.stats.EnrichmentAborts++
			return CommitInfo{}, fmt.Errorf("%w: %d enrichment versions behind", ErrEnrichmentPhantom, staleness)
		}
	}

	// First-committer-wins over the write set, which then installs by the
	// store's one commit rule: one tracked stamp, so a concurrent checkpoint
	// waits for all of it, and one log frame a table.
	ws := make([]storage.Write, 0, len(t.writes))
	for k, op := range t.writes {
		tb, ok := m.store.Table(k.table)
		if !ok {
			return CommitInfo{}, fmt.Errorf("txn: table %q vanished", k.table)
		}
		if last, ok := tb.LastModified(k.id); ok && last > t.readCSN {
			m.stats.WriteConflicts++
			return CommitInfo{}, fmt.Errorf("%w: row %d in %q modified at CSN %d (snapshot %d)",
				ErrConflict, k.id, k.table, last, t.readCSN)
		}
		ws = append(ws, storage.Write{Table: tb, ID: k.id, Rec: op.rec, Insert: op.isInsert})
	}
	csn, err := m.store.Commit(ws)
	if err != nil {
		return CommitInfo{}, err
	}
	m.stats.Commits++
	return CommitInfo{CSN: csn, EnrichmentStaleness: staleness}, nil
}
