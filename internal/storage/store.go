// Package storage implements the instance layer of the self-curating
// database (paper Section 3.1): a multi-versioned table store for raw data
// instances, with durability via an append-only, checksummed log plus
// snapshots.
//
// Records are flexible attribute maps (model.Record), so structured,
// semi-structured, and extracted-from-unstructured data share one substrate;
// the table is a container of heterogeneous instances rather than a rigid
// relational schema. Multi-versioning (every mutation is stamped with a
// commit sequence number) is what the transaction layer's snapshot and
// relaxed isolation levels are built on, and what lets enrichment run
// concurrently with queries — a prerequisite for FS.11.
package storage

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"scdb/internal/model"
)

// CSN is a commit sequence number: the logical timestamp of the
// multi-version store. Reads at CSN c observe exactly the mutations
// committed with a stamp <= c.
type CSN uint64

// RowID identifies a row within a table. RowIDs are never reused.
type RowID uint64

// version is one entry in a row's version chain.
type version struct {
	rec  model.Record // nil for a delete tombstone
	from CSN          // commit stamp that created this version
}

// row is a version chain, newest last.
type row struct {
	versions []version
}

// newRows carves n rows, each with room for its first version, from one
// []row and one []version, so a batch of rows costs two objects rather
// than two a row. Each row's versions is capped at its own element: a
// later update, delete or sorted insert reallocates the chain and never
// writes a neighbour's. A slab lives while any of its rows does.
func newRows(n int) []row {
	rows := make([]row, n)
	vers := make([]version, n)
	for i := range rows {
		rows[i].versions = vers[i : i+1 : i+1]
	}
	return rows
}

// at returns the record visible at csn, or nil if none.
func (r *row) at(csn CSN) model.Record {
	for i := len(r.versions) - 1; i >= 0; i-- {
		if r.versions[i].from <= csn {
			return r.versions[i].rec
		}
	}
	return nil
}

// addVersion inserts v keeping the chain sorted by commit stamp. Chains
// are almost always appended to in order; the sorted insert covers
// concurrent writers whose stamps were allocated in the opposite order of
// their table-latch acquisition. Replay installs in stamp order, so it
// only ever appends. A chain that outgrows its array moves to a new one
// and clears the old: that may be a slab's element (newRows), which lives
// on with its neighbours and must not keep this row's records alive.
func (r *row) addVersion(v version) {
	old := r.versions
	if n := len(r.versions); n > 0 && r.versions[n-1].from > v.from {
		i := sort.Search(n, func(k int) bool { return r.versions[k].from > v.from })
		r.versions = append(r.versions, version{})
		copy(r.versions[i+1:], r.versions[i:])
		r.versions[i] = v
	} else {
		r.versions = append(r.versions, v)
	}
	if len(old) == cap(old) {
		clear(old)
	}
}

// Table is a named collection of multi-versioned rows.
type Table struct {
	name  string
	store *Store

	mu     sync.RWMutex
	rows   map[RowID]*row
	nextID uint64
	live   int // rows visible at latest CSN

	// Self-curated access paths (index.go, zonemap.go), lazily initialized.
	zones   map[uint64]*zoneSeg // per-segment statistics for pruning
	indexes map[string]*Index   // secondary indexes by attribute
	access  map[string]uint64   // predicate traffic per attribute
}

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

// Store is the instance-layer database: a set of tables sharing one commit
// clock and one log. A Store opened with an empty directory is purely
// in-memory.
type Store struct {
	mu        sync.RWMutex
	tables    map[string]*Table
	csn       atomic.Uint64
	schemaVer atomic.Uint64 // bumped on catalog changes; plan-cache key part
	installs  atomic.Uint64 // bumped once a write's rows are visible (Installs)
	wal       *wal          // nil when in-memory
	dir       string

	// writes tracks in-flight mutation CSNs so checkpoints can wait for
	// every write at or below their snapshot stamp (checkpoint.go).
	writes writeTracker

	// Checkpoint machinery: ckptMu serializes manual Checkpoint calls
	// against the background checkpointer; the counters feed WALStats.
	ckptMu        sync.Mutex
	ckptStop      sync.Once
	ckptQuit      chan struct{}
	ckptDone      chan struct{}
	ckpts         atomic.Uint64
	ckptCSN       atomic.Uint64
	ckptReclaimed atomic.Uint64
	ckptNS        atomic.Uint64
	ckptErrs      atomic.Uint64
	recoverNS     atomic.Int64

	// Replication segment pins (repl.go): checkpoints cap their deletion
	// horizon at the lowest pinned segment so streaming subscribers never
	// lose the file they are reading.
	pinMu sync.Mutex
	pins  map[*SegmentPin]struct{}
}

// Options configures a store beyond its directory.
type Options struct {
	// Sync selects the commit durability policy (default SyncNone: frames
	// are buffered and reach disk on Sync/Checkpoint/Close).
	Sync SyncPolicy
	// SegmentBytes is the WAL segment rotation threshold (0 =
	// DefaultSegmentBytes). Appends crossing it seal the active segment —
	// flush, fsync, close — and open the next.
	SegmentBytes int64
	// CheckpointBytes triggers the background checkpointer once that many
	// WAL bytes have been appended since the last checkpoint (0 =
	// DefaultCheckpointBytes, negative disables automatic checkpoints;
	// manual Checkpoint always works).
	CheckpointBytes int64
}

// newTable makes an empty table of s.
func newTable(s *Store, name string) *Table {
	return &Table{name: name, store: s, rows: make(map[RowID]*row)}
}

func newStore(dir string) *Store {
	s := &Store{tables: make(map[string]*Table), dir: dir}
	s.writes.active = make(map[CSN]struct{})
	s.writes.cond = sync.NewCond(&s.writes.mu)
	return s
}

// Open opens (or creates) a store with default options. If dir is empty
// the store is in-memory and non-durable; otherwise the directory holds a
// snapshot file and log segments, which are replayed on open.
func Open(dir string) (*Store, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions opens (or creates) a store with explicit options. Recovery
// rebuilds tables on one worker per CPU.
func OpenOptions(dir string, opt Options) (*Store, error) {
	return openStore(dir, opt, runtime.NumCPU())
}

// openStore is OpenOptions with recovery's worker count, which in-package
// tests vary.
func openStore(dir string, opt Options, par int) (*Store, error) {
	s := newStore(dir)
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", dir, err)
	}
	activeIdx, segCount, err := s.recover(par)
	if err != nil {
		return nil, fmt.Errorf("storage: recover %s: %w", dir, err)
	}
	ckptEvery := opt.CheckpointBytes
	if ckptEvery == 0 {
		ckptEvery = DefaultCheckpointBytes
	}
	w, err := newWAL(dir, opt.Sync, activeIdx, segCount, opt.SegmentBytes, ckptEvery)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", dir, err)
	}
	s.wal = w
	if ckptEvery > 0 {
		s.ckptQuit = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go s.checkpointer()
	}
	return s, nil
}

// Close stops the background checkpointer, then flushes and closes the
// underlying log. Idempotent.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	if s.ckptQuit != nil {
		s.ckptStop.Do(func() { close(s.ckptQuit) })
		<-s.ckptDone
	}
	return s.wal.close()
}

// Now returns the latest commit sequence number; a read at Now() sees all
// committed data.
func (s *Store) Now() CSN { return CSN(s.csn.Load()) }

// next advances the commit clock and returns the new stamp.
func (s *Store) next() CSN { return CSN(s.csn.Add(1)) }

// SchemaVersion returns a counter that changes whenever the catalog does
// (table creation, including during recovery). Query-plan caches key on it
// so a schema change invalidates every cached plan.
func (s *Store) SchemaVersion() uint64 { return s.schemaVer.Load() }

// Installs counts the writes readers can see: it moves after a commit's
// part leaves its table's latch and after a replicated batch's watermark
// publishes, never before.
func (s *Store) Installs() uint64 { return s.installs.Load() }

// CreateTable creates a new empty table. It is an error if the name is
// already taken.
func (s *Store) CreateTable(name string) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	csn := s.beginWrite()
	defer s.endWrite(csn)
	t := newTable(s, name)
	s.tables[name] = t
	s.schemaVer.Add(1)
	if s.wal != nil {
		if err := s.wal.log(opCreateTable, csn, name, 0, nil); err != nil {
			delete(s.tables, name)
			return nil, err
		}
	}
	return t, nil
}

// EnsureTable returns the named table, creating it if needed.
func (s *Store) EnsureTable(name string) (*Table, error) {
	if t, ok := s.Table(name); ok {
		return t, nil
	}
	t, err := s.CreateTable(name)
	if err != nil {
		// Lost a race with a concurrent creator; the table exists now.
		if t2, ok := s.Table(name); ok {
			return t2, nil
		}
		return nil, err
	}
	return t, nil
}

// Table looks up a table by name.
func (s *Store) Table(name string) (*Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	return t, ok
}

// Tables returns the sorted table names.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// InsertBatch appends recs as new rows: a write set of inserts that takes
// the table's next IDs, installed and logged by commitPart under one commit
// stamp, one table-lock acquisition and one batch frame — the amortized
// write path for bulk ingest. Under SyncGroup the whole batch waits for a
// single fsync, shared with concurrent commits. Returns the assigned row
// IDs, which are consecutive.
func (t *Table) InsertBatch(recs []model.Record) ([]RowID, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	part := t.store.entriesFor(recs)
	for i := range part {
		part[i].op = opInsert // row ID 0: commitPart hands out the next one
	}
	csn := t.store.beginWrite()
	defer t.store.endWrite(csn)
	err := t.commitPart(csn, part, recs, newRows(len(recs)))
	ids := make([]RowID, len(part))
	for i, m := range part {
		ids[i] = RowID(m.rowID)
	}
	return ids, err
}

// Write is one row change of a transaction's write set: an insert under an
// ID from ReserveID, an update, or a delete (Rec nil).
type Write struct {
	Table  *Table
	ID     RowID
	Rec    model.Record
	Insert bool
}

// Commit installs a write set under one tracked commit stamp and returns
// the stamp. It sorts ws by (table, row ID) and hands each table's part to
// commitPart, so a crash keeps all of a table's part or none of it. A row
// appears in ws at most once. A log frame names one table, so a write set
// over several tables logs a frame a table, and a crash between those
// frames keeps some tables' parts and not the others.
func (s *Store) Commit(ws []Write) (CSN, error) {
	slices.SortStableFunc(ws, func(a, b Write) int {
		return cmp.Or(cmp.Compare(a.Table.name, b.Table.name), cmp.Compare(a.ID, b.ID))
	})
	recs := make([]model.Record, len(ws))
	for i, w := range ws {
		recs[i] = w.Rec
	}
	part := s.entriesFor(recs)
	for i, w := range ws {
		part[i].op, part[i].rowID = opUpdate, uint64(w.ID)
		if w.Insert {
			part[i].op = opInsert
		} else if w.Rec == nil {
			part[i].op = opDelete
		}
	}
	csn := s.beginWrite()
	defer s.endWrite(csn)
	for lo := 0; lo < len(ws); {
		hi := lo + 1
		for hi < len(ws) && ws[hi].Table == ws[lo].Table {
			hi++
		}
		if err := ws[lo].Table.commitPart(csn, part[lo:hi], recs[lo:hi], nil); err != nil {
			return 0, err
		}
		lo = hi
	}
	return csn, nil
}

// commitPart installs one table's part of a write set at csn under t's
// lock by the rule recovery and the follower replay the log with (fits,
// then install), keeps zone maps and indexes live, and logs the part as one
// batch frame. An entry with row ID 0 is an ingest insert and takes the
// table's next ID; slab, if not nil, holds a row for each entry. The part is
// checked whole before any of it installs, so a refused part leaves the
// table as it was.
func (t *Table) commitPart(csn CSN, part []batchEntry, recs []model.Record, slab []row) error {
	t.mu.Lock()
	for _, m := range part {
		if m.rowID != 0 {
			if err := t.fits(m.op, RowID(m.rowID)); err != nil {
				t.mu.Unlock()
				return err
			}
		}
	}
	for i := range part {
		m := &part[i]
		if m.rowID == 0 {
			t.nextID++
			m.rowID = t.nextID
		}
		var slot *row
		if slab != nil {
			slot = &slab[i]
		}
		t.install(m.op, RowID(m.rowID), recs[i], csn, slot)
		t.noteWriteLocked(RowID(m.rowID), recs[i], m.op == opInsert)
	}
	t.mu.Unlock()
	t.store.installs.Add(1)
	if w := t.store.wal; w != nil {
		return w.logBatch(t.name, csn, part)
	}
	return nil
}

// entriesFor returns a log entry for each record. On a durable store each
// entry's data is its record encoded, all of them back to back in one
// buffer with entryBytes reserved a record so ordinary rows fill it without
// growing; a nil record (a delete) encodes to nothing. Serialization is the
// expensive part of a write, so it runs before any lock is taken.
func (s *Store) entriesFor(recs []model.Record) []batchEntry {
	entries := make([]batchEntry, len(recs))
	if s.wal == nil {
		return entries
	}
	buf := make([]byte, 0, entryBytes*len(recs))
	ends := make([]int, len(recs))
	for i, rec := range recs {
		if rec != nil {
			buf = model.AppendRecord(buf, rec)
		}
		ends[i] = len(buf)
	}
	start := 0
	for i, end := range ends {
		entries[i].data = buf[start:end:end]
		start = end
	}
	return entries
}

// entryBytes is the room entriesFor reserves for each record.
const entryBytes = 64

// ReserveID allocates a row ID without creating a row, so transactional
// inserts can hand out their final IDs before commit. Aborted reservations
// leave gaps, like any sequence.
func (t *Table) ReserveID() RowID {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return RowID(t.nextID)
}

// Get returns the latest committed version of the row.
func (t *Table) Get(id RowID) (model.Record, bool) {
	return t.GetAt(id, t.store.Now())
}

// GetAt returns the version of the row visible at csn.
func (t *Table) GetAt(id RowID, csn CSN) (model.Record, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.rows[id]
	if !ok {
		return nil, false
	}
	rec := r.at(csn)
	return rec, rec != nil
}

// Len returns the number of live rows at the latest CSN.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// Scan visits every live row at the latest CSN in RowID order. The callback
// must not mutate the table; returning false stops the scan.
func (t *Table) Scan(fn func(RowID, model.Record) bool) {
	t.ScanAt(t.store.Now(), fn)
}

// ScanAt visits every row visible at csn in RowID order.
func (t *Table) ScanAt(csn CSN, fn func(RowID, model.Record) bool) {
	t.mu.RLock()
	ids := make([]RowID, 0, len(t.rows))
	for id := range t.rows {
		ids = append(ids, id)
	}
	t.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rec, ok := t.GetAt(id, csn)
		if !ok {
			continue
		}
		if !fn(id, rec) {
			return
		}
	}
}

// ScanMorselsCtx opens a scan of every row visible at csn, in RowID order,
// in chunks of at least size rows (the last may be shorter). Unlike ScanAt,
// the cursor locks the table once per size RowIDs rather than once per row.
// It checks ctx between them and ends once ctx is done, so a canceled query
// releases the table promptly. A nil ctx never cancels.
func (t *Table) ScanMorselsCtx(ctx context.Context, csn CSN, size int) Cursor {
	if size <= 0 {
		size = 1024
	}
	t.mu.RLock()
	ids := make([]RowID, 0, len(t.rows))
	for id := range t.rows {
		ids = append(ids, id)
	}
	t.mu.RUnlock()
	slices.Sort(ids)
	return Cursor{t: t, ctx: ctx, csn: csn, ids: ids, size: size}
}

// Cursor is an opened scan: the candidate RowIDs chosen when it was opened,
// walked on whichever goroutine pulls it. Each pull reads the records
// visible at the scan's stamp, one block of RowIDs under the table's read
// lock at a time: a zone segment for ScanWhere, size RowIDs for
// ScanMorselsCtx. The cursor checks its context between blocks.
type Cursor struct {
	t     *Table
	ctx   context.Context
	csn   CSN
	ids   []RowID // candidates in RowID order; ids[pos:] are not read yet
	pos   int
	size  int              // ScanMorselsCtx: rows per chunk; 0 chunks on zone segments
	preds []model.Conjunct // conjuncts a segment's zone map may refute
	prune bool
	info  ScanInfo
}

// Next returns the next chunk of visible records, or nil once the
// candidates are exhausted or the context is done. A pushed-down scan's
// chunk is one zone segment's records; a plain scan reads blocks of size
// RowIDs until the chunk holds at least size records. The slice is freshly
// allocated, so callers may keep it: the query executor hands it to its
// workers.
func (c *Cursor) Next() []model.Record {
	var recs []model.Record
	for c.pos < len(c.ids) && (len(recs) == 0 || len(recs) < c.size) {
		if c.ctx != nil && c.ctx.Err() != nil {
			c.pos = len(c.ids)
			return nil
		}
		lo, hi := c.pos, c.blockEnd()
		c.pos = hi
		c.t.mu.RLock()
		if c.size == 0 {
			seg := zoneSegFor(c.ids[lo])
			c.info.Segments++
			if c.prune && c.t.segRefutedLocked(seg, c.preds) {
				c.t.mu.RUnlock()
				c.info.Pruned++
				continue
			}
		}
		if recs == nil {
			recs = make([]model.Record, 0, max(c.size, hi-lo))
		}
		for _, id := range c.ids[lo:hi] {
			if r, ok := c.t.rows[id]; ok {
				if rec := r.at(c.csn); rec != nil {
					recs = append(recs, rec)
				}
			}
		}
		c.t.mu.RUnlock()
	}
	if len(recs) == 0 {
		return nil
	}
	return recs
}

// blockEnd is the end of the block of candidates starting at pos: the next
// size of them, or the rest of pos's zone segment.
func (c *Cursor) blockEnd() int {
	if c.size > 0 {
		return min(c.pos+c.size, len(c.ids))
	}
	seg, end := zoneSegFor(c.ids[c.pos]), c.pos+1
	for end < len(c.ids) && zoneSegFor(c.ids[end]) == seg {
		end++
	}
	return end
}

// Info reports what the scan has done so far: the index it chose when it
// was opened, and the zone segments it has considered and pruned.
func (c *Cursor) Info() ScanInfo { return c.info }

// LastModified returns the commit stamp of the row's newest version
// (including tombstones). It is how the transaction layer validates
// first-committer-wins: a row modified after a transaction's read snapshot
// conflicts with that transaction's write.
func (t *Table) LastModified(id RowID) (CSN, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.rows[id]
	if !ok || len(r.versions) == 0 {
		return 0, false
	}
	return r.versions[len(r.versions)-1].from, true
}

// Vacuum drops versions that are invisible at every CSN >= horizon,
// reclaiming memory once old snapshots are no longer referenced. Fully
// deleted rows whose tombstone predates the horizon are removed entirely.
func (t *Table) Vacuum(horizon CSN) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	removed := 0
	for id, r := range t.rows {
		// Find the newest version with from <= horizon; everything before
		// it is invisible at and after the horizon.
		keepFrom := 0
		for i := len(r.versions) - 1; i >= 0; i-- {
			if r.versions[i].from <= horizon {
				keepFrom = i
				break
			}
		}
		if keepFrom > 0 {
			removed += keepFrom
			r.versions = append([]version(nil), r.versions[keepFrom:]...)
		}
		if len(r.versions) == 1 && r.versions[0].rec == nil {
			r.versions = nil // its slab, if any, outlives it
			delete(t.rows, id)
			removed++
		}
	}
	// Vacuum is the curation point for the access paths: zone maps are
	// recomputed exactly from what survived (the only time they narrow),
	// surviving indexes are rebuilt compactly, and cold auto-created
	// indexes are dropped.
	t.rebuildZonesLocked()
	t.vacuumIndexesLocked()
	return removed
}
