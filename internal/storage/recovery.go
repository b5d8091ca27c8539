package storage

// Recovery. Open loads the newest snapshot (if any), reads only WAL
// segments at or above the snapshot's horizon — skipping frames whose
// commit stamp the snapshot already covers — and rebuilds zone maps plus
// the persisted auto-index catalog, so open time is O(data since the last
// checkpoint).
//
// The log is read back by one rule, shared with the replica follower
// (repl.go): each frame expands into row mutations (ReplEntry.mutations),
// and Table.applyLogged installs them in commit-stamp order. WAL append
// order is not stamp order — stamps are allocated before the table latch
// and frames appended after it is released — so recovery first collects
// each table's mutations above the snapshot stamp, then, in one fan-out
// over tables, decodes the table's snapshot section, stable-sorts its
// mutations by stamp, applies them and rebuilds its access paths. The
// replayed segments' bytes stay in memory until that fan-out ends, so
// recovery's peak holds the un-checkpointed log beside the tables it
// rebuilds.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"scdb/internal/model"
)

// ErrCorrupt reports a bad frame in a WAL segment that a later segment's
// intact frame proves was durable: rotation fsyncs a segment before any
// frame goes to the next, so the bad bytes are damage, not a torn tail.
// Open fails with it, wrapped with the segment and byte offset, and leaves
// every file as it was.
var ErrCorrupt = errors.New("storage: corrupt log segment")

// frameAt returns the payload of the frame at offset off in data, or false
// when the frame is torn: a short header or payload, an oversized length or
// a checksum mismatch.
func frameAt(data []byte, off int64) ([]byte, bool) {
	if int64(len(data))-off < 12 {
		return nil, false
	}
	n := int64(binary.BigEndian.Uint32(data[off : off+4]))
	sum := binary.BigEndian.Uint64(data[off+4 : off+12])
	if n > 1<<30 || int64(len(data))-off-12 < n {
		return nil, false
	}
	payload := data[off+12 : off+12+n]
	h := fnv.New64a()
	h.Write(payload)
	return payload, h.Sum64() == sum
}

// parseFrames walks framed entries in data starting at offset start,
// calling fn for each intact frame. It returns the offset of the first
// torn frame — the point at which the segment should be truncated — or an
// error if fn or payload decoding failed on an intact frame.
func parseFrames(data []byte, start int64, fn func(ReplEntry) error) (valid int64, err error) {
	off := start
	for {
		payload, ok := frameAt(data, off)
		if !ok {
			return off, nil
		}
		e, err := decodeEntry(payload)
		if err != nil {
			return off, err
		}
		if err := fn(e); err != nil {
			return off, err
		}
		off += 12 + int64(len(payload))
	}
}

// decodeEntry decodes one frame payload.
func decodeEntry(payload []byte) (ReplEntry, error) {
	if len(payload) < 1 {
		return ReplEntry{}, fmt.Errorf("storage: empty log payload")
	}
	e := ReplEntry{Op: payload[0]}
	pos := 1
	c, n := binary.Uvarint(payload[pos:])
	if n <= 0 {
		return ReplEntry{}, fmt.Errorf("storage: malformed commit stamp")
	}
	pos += n
	e.CSN = CSN(c)
	l, n := binary.Uvarint(payload[pos:])
	if n <= 0 || uint64(len(payload)-pos-n) < l {
		return ReplEntry{}, fmt.Errorf("storage: malformed table name")
	}
	pos += n
	e.Table = string(payload[pos : pos+int(l)])
	pos += int(l)
	id, n := binary.Uvarint(payload[pos:])
	if n <= 0 {
		return ReplEntry{}, fmt.Errorf("storage: malformed row id")
	}
	pos += n
	e.RowID = id
	dl, n := binary.Uvarint(payload[pos:])
	if n <= 0 || uint64(len(payload)-pos-n) < dl {
		return ReplEntry{}, fmt.Errorf("storage: malformed data length")
	}
	pos += n
	e.Data = payload[pos : pos+int(dl)]
	return e, nil
}

// mutations calls fn for each row mutation the frame carries, in order: a
// batch frame's sub-entries, or the frame itself for a single-row frame.
// Every mutation shares the frame's commit stamp.
func (e *ReplEntry) mutations(fn func(batchEntry) error) error {
	if e.Op != opBatch {
		return fn(batchEntry{op: e.Op, rowID: e.RowID, data: e.Data})
	}
	rest := e.Data
	for i := uint64(0); i < e.RowID; i++ {
		if len(rest) < 1 {
			return fmt.Errorf("storage: malformed batch frame for %q", e.Table)
		}
		pos := 1
		id, n := binary.Uvarint(rest[pos:])
		if n <= 0 {
			return fmt.Errorf("storage: malformed batch row id")
		}
		pos += n
		dl, n := binary.Uvarint(rest[pos:])
		if n <= 0 || uint64(len(rest)-pos-n) < dl {
			return fmt.Errorf("storage: malformed batch data length")
		}
		pos += n
		if err := fn(batchEntry{op: rest[0], rowID: id, data: rest[pos : pos+int(dl)]}); err != nil {
			return err
		}
		rest = rest[pos+int(dl):]
	}
	return nil
}

// applyLogged installs one logged row mutation at its commit stamp, keeping
// live and nextID up to date, and returns the record it wrote (nil for a
// delete). It is the one replay rule for recovery and the follower. Both
// apply a table's mutations in stamp order, so an insert finds no row and
// an update or delete finds one. The caller owns t: recovery because one
// worker rebuilds each table, the follower by holding t.mu.
func (t *Table) applyLogged(m batchEntry, csn CSN) (model.Record, error) {
	id := RowID(m.rowID)
	r := t.rows[id]
	switch m.op {
	case opInsert, opUpdate:
		rec, _, err := model.DecodeRecord(m.data)
		if err != nil {
			return nil, err
		}
		if m.op == opUpdate {
			if r == nil {
				return nil, fmt.Errorf("storage: log update of unknown row %d in %q", id, t.name)
			}
			r.addVersion(version{rec: rec, from: csn})
			return rec, nil
		}
		if r != nil {
			return nil, fmt.Errorf("storage: log insert of existing row %d in %q", id, t.name)
		}
		t.rows[id] = &row{versions: []version{{rec: rec, from: csn}}}
		t.nextID = max(t.nextID, m.rowID)
		t.live++
		return rec, nil
	case opDelete:
		if r == nil || r.versions[len(r.versions)-1].rec == nil {
			return nil, fmt.Errorf("storage: log delete of unknown row %d in %q", id, t.name)
		}
		r.addVersion(version{rec: nil, from: csn})
		t.live--
		return nil, nil
	}
	return nil, fmt.Errorf("storage: unknown log op %d", m.op)
}

// idxSpec carries one persisted index from a snapshot section to the
// rebuild that follows the table's replay.
type idxSpec struct {
	attr   string
	pinned bool
	hits   uint64
}

// tableReplay is what recovery gathers for one table before the fan-out:
// its snapshot section, if the snapshot has one, and its logged mutations
// above the snapshot stamp, in log order.
type tableReplay struct {
	t       *Table
	section []byte
	muts    []stampedMutation
}

// stampedMutation is one logged row mutation with its frame's stamp.
type stampedMutation struct {
	csn CSN
	batchEntry
}

// recover loads the snapshot, replays segments above its horizon on par
// workers, and rebuilds access paths. It returns the segment index the WAL
// should append to and how many segment files will exist once it is
// opened.
func (s *Store) recover(par int) (activeIdx uint64, segCount int, err error) {
	start := nanotime()
	// Reject a store in a format this build cannot read before anything
	// below renames, truncates or deletes a file in it.
	idxs, err := listSegments(s.dir)
	if err != nil {
		return 0, 0, err
	}
	if err := checkFormats(s.dir, idxs); err != nil {
		return 0, 0, err
	}

	replays := map[string]*tableReplay{}
	snapCSN, horizon, err := s.loadSnapshot(replays)
	if err != nil {
		return 0, 0, err
	}

	// Segments below the checkpoint horizon are covered by the snapshot.
	// Normally the checkpoint deleted them already; a crash between the
	// snapshot rename and the deletion leaves them behind, and they go once
	// the snapshot has decoded.
	first, _ := slices.BinarySearch(idxs, horizon)
	retired := idxs[:first]
	idxs, maxCSN, err := s.readSegments(idxs[first:], snapCSN, replays)
	if err != nil {
		return 0, 0, err
	}
	if uint64(maxCSN) > s.csn.Load() {
		s.csn.Store(uint64(maxCSN))
	}

	// The WAL appends to the highest surviving segment; fresh stores start
	// at segment 1.
	segCount = len(idxs)
	if len(idxs) > 0 {
		activeIdx = idxs[len(idxs)-1]
	} else {
		activeIdx = max(horizon, 1)
		segCount = 1 // openActiveSegment will create it
	}

	tables := make([]*tableReplay, 0, len(replays))
	for _, r := range replays {
		tables = append(tables, r)
	}
	if err := fanOut(len(tables), par, func(i int) error { return tables[i].run(snapCSN) }); err != nil {
		return 0, 0, err
	}
	for _, idx := range retired {
		os.Remove(segPath(s.dir, idx))
	}
	// A leftover snapshot .tmp is a checkpoint that died before its
	// rename; the previous snapshot (if any) is still the good one.
	os.Remove(filepath.Join(s.dir, snapshotName+".tmp"))
	s.recoverNS.Store(nanotime() - start)
	return activeIdx, segCount, nil
}

// readSegments reads the given segments in index order and files every
// frame above snapCSN with its table. A torn tail truncates its segment; if
// that segment is not the last, every later segment is deleted too — replay
// is a strict prefix of the log, and appends resume where it ends. A tear
// is a torn tail only if no later segment holds an intact frame (a crash
// mid-rotation leaves a header-only segment after it); otherwise it is
// ErrCorrupt and nothing is truncated or deleted. Returns the surviving
// segment list and the highest commit stamp read.
func (s *Store) readSegments(idxs []uint64, snapCSN CSN, replays map[string]*tableReplay) ([]uint64, CSN, error) {
	var maxCSN CSN
	collect := func(e ReplEntry) error {
		if e.CSN <= snapCSN {
			return nil // already covered by the snapshot
		}
		maxCSN = max(maxCSN, e.CSN)
		if e.Op == opCreateTable {
			if _, ok := replays[e.Table]; !ok {
				t := newTable(s, e.Table)
				s.tables[e.Table] = t
				s.schemaVer.Add(1)
				replays[e.Table] = &tableReplay{t: t}
			}
			return nil
		}
		r, ok := replays[e.Table]
		if !ok {
			return fmt.Errorf("storage: log references unknown table %q", e.Table)
		}
		return e.mutations(func(m batchEntry) error {
			r.muts = append(r.muts, stampedMutation{csn: e.CSN, batchEntry: m})
			return nil
		})
	}
	for i, idx := range idxs {
		p := segPath(s.dir, idx)
		data, err := os.ReadFile(p)
		if err != nil {
			return idxs, maxCSN, err
		}
		// A header shorter than the magic is a crash mid-creation
		// (checkFormats let it through as a prefix of the magic): the
		// segment holds no frames and truncates to empty below.
		var valid int64
		if len(data) >= len(segMagic) {
			if valid, err = parseFrames(data, int64(len(segMagic)), collect); err != nil {
				return idxs, maxCSN, err
			}
		}
		if valid < int64(len(data)) {
			for _, later := range idxs[i+1:] {
				durable, err := holdsFrame(segPath(s.dir, later))
				if err != nil {
					return idxs, maxCSN, err
				}
				if durable {
					return idxs, maxCSN, fmt.Errorf("%w: segment %d at byte %d: segment %d after it holds frames", ErrCorrupt, idx, valid, later)
				}
			}
			// Torn tail: truncate so future appends start at a clean
			// frame, and drop anything after the tear.
			if err := os.Truncate(p, valid); err != nil {
				return idxs, maxCSN, err
			}
			for _, later := range idxs[i+1:] {
				os.Remove(segPath(s.dir, later))
			}
			return idxs[:i+1], maxCSN, nil
		}
	}
	return idxs, maxCSN, nil
}

// holdsFrame reports whether the segment at path opens with an intact frame.
func holdsFrame(path string) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < len(segMagic) {
		return false, err
	}
	_, ok := frameAt(data, int64(len(segMagic)))
	return ok, nil
}

// run rebuilds one table: its snapshot section, then its logged mutations
// in stamp order (stable, so a frame's sub-entries and a transaction's
// frames keep their log order), then its zone maps and restored index
// catalog. One worker owns the table, so no latch is taken.
func (r *tableReplay) run(snapCSN CSN) error {
	t := r.t
	var idx []idxSpec
	if r.section != nil {
		var err error
		if idx, err = t.decodeSection(r.section, snapCSN); err != nil {
			return err
		}
	}
	slices.SortStableFunc(r.muts, func(a, b stampedMutation) int { return cmp.Compare(a.csn, b.csn) })
	for _, m := range r.muts {
		if _, err := t.applyLogged(m.batchEntry, m.csn); err != nil {
			return err
		}
	}
	t.rebuildZonesLocked()
	for _, spec := range idx {
		t.restoreIndexLocked(spec)
	}
	return nil
}

// fanOut runs fn(0) … fn(n-1) on at most par goroutines and returns the
// error of the lowest index that failed.
func fanOut(n, par int, fn func(int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range max(1, min(par, n)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return cmp.Or(errs...)
}

// loadSnapshot reads the snapshot file, if present: it creates each table
// it holds, hands the table's section to replays for the fan-out to decode,
// and returns the snapshot's commit stamp and horizon segment.
// (checkFormats has already vouched for its magic.)
func (s *Store) loadSnapshot(replays map[string]*tableReplay) (CSN, uint64, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, snapshotName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	pos := len(snapMagic)
	snapCSN, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("storage: corrupt snapshot csn")
	}
	pos += n
	horizon, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("storage: corrupt snapshot horizon")
	}
	pos += n
	nTables, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("storage: corrupt snapshot header")
	}
	pos += n
	for i := uint64(0); i < nTables; i++ {
		l, n := binary.Uvarint(data[pos:])
		if n <= 0 || uint64(len(data)-pos-n) < l {
			return 0, 0, fmt.Errorf("storage: corrupt snapshot table name")
		}
		pos += n
		name := string(data[pos : pos+int(l)])
		pos += int(l)
		sl, n := binary.Uvarint(data[pos:])
		if n <= 0 || uint64(len(data)-pos-n) < sl {
			return 0, 0, fmt.Errorf("storage: corrupt snapshot section for %q", name)
		}
		pos += n
		t := newTable(s, name)
		s.tables[name] = t
		replays[name] = &tableReplay{t: t, section: data[pos : pos+int(sl)]}
		pos += int(sl)
	}
	s.csn.Store(snapCSN)
	return CSN(snapCSN), horizon, nil
}

// decodeSection decodes one table's v2 snapshot section into t: its rows at
// snapCSN, next row ID and access counters. The persisted indexes are
// returned for the rebuild that follows replay.
func (t *Table) decodeSection(data []byte, snapCSN CSN) ([]idxSpec, error) {
	name := t.name
	pos := 0
	nextID, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("storage: corrupt snapshot next-id for %q", name)
	}
	pos += n
	t.nextID = nextID
	nRows, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("storage: corrupt snapshot row count for %q", name)
	}
	pos += n
	// A row takes at least two bytes (its ID and its field count), so a
	// count the section's bytes cannot hold is corrupt, and the slab is
	// never sized by a count the bytes do not back.
	if nRows > uint64(len(data)-pos)/2 {
		return nil, fmt.Errorf("storage: corrupt snapshot row count %d for %q: %d bytes left", nRows, name, len(data)-pos)
	}
	slab := newRows(int(nRows))
	for j := range slab {
		id, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("storage: corrupt snapshot row id")
		}
		pos += n
		rec, used, err := model.DecodeRecord(data[pos:])
		if err != nil {
			return nil, fmt.Errorf("storage: corrupt snapshot record: %w", err)
		}
		pos += used
		slab[j].versions[0] = version{rec: rec, from: snapCSN}
		t.rows[RowID(id)] = &slab[j]
		t.nextID = max(t.nextID, id)
		t.live++
	}
	nIdx, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("storage: corrupt snapshot index catalog for %q", name)
	}
	pos += n
	var idx []idxSpec
	for j := uint64(0); j < nIdx; j++ {
		l, n := binary.Uvarint(data[pos:])
		if n <= 0 || uint64(len(data)-pos-n) < l+2 {
			return nil, fmt.Errorf("storage: corrupt snapshot index entry for %q", name)
		}
		pos += n
		attr := string(data[pos : pos+int(l)])
		pos += int(l)
		pinned := data[pos+1] == 1 // data[pos] is the kind byte, ignored
		pos += 2
		hits, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("storage: corrupt snapshot index hits for %q", name)
		}
		pos += n
		idx = append(idx, idxSpec{attr: attr, pinned: pinned, hits: hits})
	}
	nAcc, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("storage: corrupt snapshot access stats for %q", name)
	}
	pos += n
	t.initCurationLocked()
	for j := uint64(0); j < nAcc; j++ {
		l, n := binary.Uvarint(data[pos:])
		if n <= 0 || uint64(len(data)-pos-n) < l {
			return nil, fmt.Errorf("storage: corrupt snapshot access entry for %q", name)
		}
		pos += n
		attr := string(data[pos : pos+int(l)])
		pos += int(l)
		for range 2 { // the attribute's counter is the sum of the two
			c, n := binary.Uvarint(data[pos:])
			if n <= 0 {
				return nil, fmt.Errorf("storage: corrupt snapshot access count for %q", name)
			}
			pos += n
			t.access[attr] += c
		}
	}
	return idx, nil
}
