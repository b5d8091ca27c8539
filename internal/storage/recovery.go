package storage

// Bounded parallel recovery. Open loads the newest snapshot (if any),
// replays only WAL segments at or above the snapshot's horizon — skipping
// individual frames whose commit stamp the snapshot already covers — and
// rebuilds zone maps plus the persisted auto-index catalog. Snapshot table
// sections, per-table replay, and the access-path rebuild all fan out
// across a worker pool (Options.RecoverParallelism), so open time is
// O(data since the last checkpoint) and scales with cores.
//
// Replay applies frames at their recorded commit stamps: WAL append order
// is not CSN order (stamps are allocated before the table latch, frames
// appended after it), so each version is inserted into its row's chain in
// stamp order rather than re-stamped.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"scdb/internal/model"
)

// logEntry is one decoded log frame.
type logEntry struct {
	op    byte
	csn   CSN
	table string
	rowID uint64
	data  []byte
}

// parseFrames walks framed entries in data starting at offset start,
// calling fn for each intact frame. It returns the offset of the first
// torn frame (short header/payload, bad checksum, oversized length) — the
// point at which the segment should be truncated — or an error if fn or
// payload decoding failed on an intact frame.
func parseFrames(data []byte, start int64, fn func(logEntry) error) (valid int64, err error) {
	off := start
	for {
		if int64(len(data))-off < 12 {
			return off, nil // torn header
		}
		n := int64(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint64(data[off+4 : off+12])
		if n > 1<<30 || int64(len(data))-off-12 < n {
			return off, nil // corrupt length or torn payload
		}
		payload := data[off+12 : off+12+n]
		h := fnv.New64a()
		h.Write(payload)
		if h.Sum64() != sum {
			return off, nil // checksum mismatch: treat as torn
		}
		e, err := decodeEntry(payload)
		if err != nil {
			return off, err
		}
		if err := fn(e); err != nil {
			return off, err
		}
		off += 12 + n
	}
}

// decodeEntry decodes one frame payload.
func decodeEntry(payload []byte) (logEntry, error) {
	if len(payload) < 1 {
		return logEntry{}, fmt.Errorf("storage: empty log payload")
	}
	e := logEntry{op: payload[0]}
	pos := 1
	c, n := binary.Uvarint(payload[pos:])
	if n <= 0 {
		return logEntry{}, fmt.Errorf("storage: malformed commit stamp")
	}
	pos += n
	e.csn = CSN(c)
	l, n := binary.Uvarint(payload[pos:])
	if n <= 0 || uint64(len(payload)-pos-n) < l {
		return logEntry{}, fmt.Errorf("storage: malformed table name")
	}
	pos += n
	e.table = string(payload[pos : pos+int(l)])
	pos += int(l)
	id, n := binary.Uvarint(payload[pos:])
	if n <= 0 {
		return logEntry{}, fmt.Errorf("storage: malformed row id")
	}
	pos += n
	e.rowID = id
	dl, n := binary.Uvarint(payload[pos:])
	if n <= 0 || uint64(len(payload)-pos-n) < dl {
		return logEntry{}, fmt.Errorf("storage: malformed data length")
	}
	pos += n
	e.data = payload[pos : pos+int(dl)]
	return e, nil
}

// idxSpec and accSpec carry the persisted self-curation catalog from a v2
// snapshot to the rebuild phase.
type idxSpec struct {
	attr   string
	kind   IndexKind
	pinned bool
	hits   uint64
}

type accSpec struct {
	attr    string
	eq, rng uint64
}

type tableAux struct {
	idx []idxSpec
	acc []accSpec
}

// recover loads the snapshot, replays segments above its horizon, and
// rebuilds access paths. It returns the segment index the WAL should
// append to and how many segment files will exist once it is opened.
func (s *Store) recover(opt Options) (activeIdx uint64, segCount int, err error) {
	start := nanotime()
	par := opt.RecoverParallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	// Reject a store in a format this build cannot read before anything
	// below renames, truncates or deletes a file in it.
	idxs, err := listSegments(s.dir)
	if err != nil {
		return 0, 0, err
	}
	if err := checkFormats(s.dir, idxs); err != nil {
		return 0, 0, err
	}

	// A leftover snapshot .tmp is a checkpoint that died before its
	// rename; the previous snapshot (if any) is still the good one.
	os.Remove(filepath.Join(s.dir, snapshotName+".tmp"))

	snapCSN, horizon, aux, err := s.loadSnapshot(par)
	if err != nil {
		return 0, 0, err
	}

	// Retire segments below the checkpoint horizon. Normally the
	// checkpoint deleted them already; a crash between the snapshot
	// rename and the deletion leaves them behind.
	keep := idxs[:0]
	for _, idx := range idxs {
		if idx < horizon {
			os.Remove(segPath(s.dir, idx))
			continue
		}
		keep = append(keep, idx)
	}
	idxs = keep

	idxs, maxCSN, err := s.replaySegments(idxs, snapCSN, par)
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

	s.rebuildAll(aux, par)
	s.recoverNS.Store(nanotime() - start)
	return activeIdx, segCount, nil
}

// replaySegments replays the given segments in index order through a
// per-table-ordered applier. A torn tail truncates its segment; if that
// segment is not the last, every later segment is deleted too — replay is
// a strict prefix of the log, and appends resume where it ends. Returns
// the surviving segment list and the highest commit stamp applied.
func (s *Store) replaySegments(idxs []uint64, snapCSN CSN, par int) ([]uint64, CSN, error) {
	ap := newApplier(s, par)
	var maxCSN CSN
	for i, idx := range idxs {
		p := segPath(s.dir, idx)
		data, err := os.ReadFile(p)
		if err != nil {
			ap.finish()
			return idxs, maxCSN, err
		}
		// A header shorter than the magic is a crash mid-creation
		// (checkFormats let it through as a prefix of the magic): the
		// segment holds no frames and truncates to empty below.
		var valid int64
		if len(data) >= len(segMagic) {
			valid, err = parseFrames(data, int64(len(segMagic)), func(e logEntry) error {
				if e.csn <= snapCSN {
					return nil // already covered by the snapshot
				}
				if e.csn > maxCSN {
					maxCSN = e.csn
				}
				return ap.dispatch(e)
			})
		}
		if err != nil {
			ap.finish()
			return idxs, maxCSN, err
		}
		if valid < int64(len(data)) {
			// Torn tail: truncate so future appends start at a clean
			// frame, and drop anything after the tear.
			if err := os.Truncate(p, valid); err != nil {
				ap.finish()
				return idxs, maxCSN, err
			}
			for _, later := range idxs[i+1:] {
				os.Remove(segPath(s.dir, later))
			}
			idxs = idxs[:i+1]
			break
		}
	}
	if err := ap.finish(); err != nil {
		return idxs, maxCSN, err
	}
	return idxs, maxCSN, nil
}

// applier routes replay mutations to per-table-sticky workers so frames
// against one table apply in log order while distinct tables proceed in
// parallel. Table creation happens inline on the dispatching goroutine —
// workers never touch the store's table map. With par <= 1 everything
// applies inline.
type applier struct {
	s       *Store
	chans   []chan applyJob
	wg      sync.WaitGroup
	failed  atomic.Bool
	errOnce sync.Once
	err     error
}

type applyJob struct {
	t     *Table
	op    byte
	rowID uint64
	data  []byte
	csn   CSN
}

func newApplier(s *Store, par int) *applier {
	ap := &applier{s: s}
	if par > 1 {
		ap.chans = make([]chan applyJob, par)
		for i := range ap.chans {
			ch := make(chan applyJob, 256)
			ap.chans[i] = ch
			ap.wg.Add(1)
			go func() {
				defer ap.wg.Done()
				for job := range ch {
					if ap.failed.Load() {
						continue
					}
					if err := applyOp(job.t, job.op, job.rowID, job.data, job.csn); err != nil {
						ap.fail(err)
					}
				}
			}()
		}
	}
	return ap
}

func (ap *applier) fail(err error) {
	ap.errOnce.Do(func() { ap.err = err })
	ap.failed.Store(true)
}

// dispatch decodes one frame into per-row mutations and routes them.
func (ap *applier) dispatch(e logEntry) error {
	if ap.failed.Load() {
		return ap.finishErr()
	}
	s := ap.s
	if e.op == opCreateTable {
		if _, ok := s.tables[e.table]; !ok {
			s.tables[e.table] = &Table{name: e.table, store: s, rows: make(map[RowID]*row)}
			s.schemaVer.Add(1)
		}
		return nil
	}
	t, ok := s.tables[e.table]
	if !ok {
		return fmt.Errorf("storage: log references unknown table %q", e.table)
	}
	csn := e.csn
	if e.op == opBatch {
		// One commit stamp for the whole batch, as the live path used.
		rest := e.data
		for i := uint64(0); i < e.rowID; i++ {
			if len(rest) < 1 {
				return fmt.Errorf("storage: malformed batch frame for %q", e.table)
			}
			op := rest[0]
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
			data := rest[pos : pos+int(dl)]
			rest = rest[pos+int(dl):]
			if err := ap.route(applyJob{t: t, op: op, rowID: id, data: data, csn: csn}); err != nil {
				return err
			}
		}
		return nil
	}
	return ap.route(applyJob{t: t, op: e.op, rowID: e.rowID, data: e.data, csn: csn})
}

func (ap *applier) route(job applyJob) error {
	if len(ap.chans) == 0 {
		return applyOp(job.t, job.op, job.rowID, job.data, job.csn)
	}
	// Inline FNV-1a over the table name: one table always maps to one
	// worker, preserving per-table apply order.
	h := uint32(2166136261)
	for i := 0; i < len(job.t.name); i++ {
		h = (h ^ uint32(job.t.name[i])) * 16777619
	}
	ap.chans[h%uint32(len(ap.chans))] <- job
	return nil
}

// finish drains the workers and returns the first apply error, if any.
func (ap *applier) finish() error {
	for _, ch := range ap.chans {
		close(ch)
	}
	ap.wg.Wait()
	ap.chans = nil
	return ap.err
}

// finishErr waits for workers without closing twice (dispatch path).
func (ap *applier) finishErr() error {
	if err := ap.finish(); err != nil {
		return err
	}
	return errors.New("storage: replay failed")
}

// applyOp replays one mutation against a table at the given stamp. Only
// the owning replay worker touches t, so no latch is taken; versions are
// inserted in stamp order because cross-table WAL order is not CSN order.
func applyOp(t *Table, op byte, rowID uint64, data []byte, csn CSN) error {
	switch op {
	case opInsert:
		rec, _, err := model.DecodeRecord(data)
		if err != nil {
			return err
		}
		id := RowID(rowID)
		t.rows[id] = &row{versions: []version{{rec: rec, from: csn}}}
		if uint64(id) > t.nextID {
			t.nextID = uint64(id)
		}
		t.live++
	case opUpdate:
		rec, _, err := model.DecodeRecord(data)
		if err != nil {
			return err
		}
		r, ok := t.rows[RowID(rowID)]
		if !ok {
			return fmt.Errorf("storage: log update of unknown row %d in %q", rowID, t.name)
		}
		r.addVersion(version{rec: rec, from: csn})
	case opDelete:
		r, ok := t.rows[RowID(rowID)]
		if !ok {
			return fmt.Errorf("storage: log delete of unknown row %d in %q", rowID, t.name)
		}
		r.addVersion(version{rec: nil, from: csn})
		t.live--
	default:
		return fmt.Errorf("storage: unknown log op %d", op)
	}
	return nil
}

// loadSnapshot reads the snapshot file, if present, and returns its commit
// stamp, horizon segment, and the persisted self-curation catalog.
// (checkFormats has already vouched for its magic.)
func (s *Store) loadSnapshot(par int) (CSN, uint64, map[string]*tableAux, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, snapshotName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, 0, nil, nil
		}
		return 0, 0, nil, err
	}
	pos := len(snapMagic)
	snapCSN, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("storage: corrupt snapshot csn")
	}
	pos += n
	horizon, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("storage: corrupt snapshot horizon")
	}
	pos += n
	nTables, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("storage: corrupt snapshot header")
	}
	pos += n

	type sec struct {
		name string
		data []byte
	}
	secs := make([]sec, 0, nTables)
	for i := uint64(0); i < nTables; i++ {
		l, n := binary.Uvarint(data[pos:])
		if n <= 0 || uint64(len(data)-pos-n) < l {
			return 0, 0, nil, fmt.Errorf("storage: corrupt snapshot table name")
		}
		pos += n
		name := string(data[pos : pos+int(l)])
		pos += int(l)
		sl, n := binary.Uvarint(data[pos:])
		if n <= 0 || uint64(len(data)-pos-n) < sl {
			return 0, 0, nil, fmt.Errorf("storage: corrupt snapshot section for %q", name)
		}
		pos += n
		secs = append(secs, sec{name: name, data: data[pos : pos+int(sl)]})
		pos += int(sl)
	}

	aux := make(map[string]*tableAux, len(secs))
	tables := make([]*Table, len(secs))
	auxes := make([]*tableAux, len(secs))
	errs := make([]error, len(secs))
	if par > 1 && len(secs) > 1 {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					tables[i], auxes[i], errs[i] = s.decodeSection(secs[i].name, secs[i].data, CSN(snapCSN))
				}
			}()
		}
		for i := range secs {
			work <- i
		}
		close(work)
		wg.Wait()
	} else {
		for i := range secs {
			tables[i], auxes[i], errs[i] = s.decodeSection(secs[i].name, secs[i].data, CSN(snapCSN))
		}
	}
	for i := range secs {
		if errs[i] != nil {
			return 0, 0, nil, errs[i]
		}
		s.tables[secs[i].name] = tables[i]
		aux[secs[i].name] = auxes[i]
	}
	s.csn.Store(snapCSN)
	return CSN(snapCSN), horizon, aux, nil
}

// decodeSection decodes one table's v2 snapshot section.
func (s *Store) decodeSection(name string, data []byte, snapCSN CSN) (*Table, *tableAux, error) {
	t := &Table{name: name, store: s, rows: make(map[RowID]*row)}
	aux := &tableAux{}
	pos := 0
	nextID, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, nil, fmt.Errorf("storage: corrupt snapshot next-id for %q", name)
	}
	pos += n
	t.nextID = nextID
	nRows, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, nil, fmt.Errorf("storage: corrupt snapshot row count for %q", name)
	}
	pos += n
	for j := uint64(0); j < nRows; j++ {
		id, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, nil, fmt.Errorf("storage: corrupt snapshot row id")
		}
		pos += n
		rec, used, err := model.DecodeRecord(data[pos:])
		if err != nil {
			return nil, nil, fmt.Errorf("storage: corrupt snapshot record: %w", err)
		}
		pos += used
		t.rows[RowID(id)] = &row{versions: []version{{rec: rec, from: snapCSN}}}
		if id > t.nextID {
			t.nextID = id
		}
		t.live++
	}
	nIdx, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, nil, fmt.Errorf("storage: corrupt snapshot index catalog for %q", name)
	}
	pos += n
	for j := uint64(0); j < nIdx; j++ {
		l, n := binary.Uvarint(data[pos:])
		if n <= 0 || uint64(len(data)-pos-n) < l+2 {
			return nil, nil, fmt.Errorf("storage: corrupt snapshot index entry for %q", name)
		}
		pos += n
		attr := string(data[pos : pos+int(l)])
		pos += int(l)
		kind := IndexKind(data[pos])
		pinned := data[pos+1] == 1
		pos += 2
		hits, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, nil, fmt.Errorf("storage: corrupt snapshot index hits for %q", name)
		}
		pos += n
		aux.idx = append(aux.idx, idxSpec{attr: attr, kind: kind, pinned: pinned, hits: hits})
	}
	nAcc, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, nil, fmt.Errorf("storage: corrupt snapshot access stats for %q", name)
	}
	pos += n
	for j := uint64(0); j < nAcc; j++ {
		l, n := binary.Uvarint(data[pos:])
		if n <= 0 || uint64(len(data)-pos-n) < l {
			return nil, nil, fmt.Errorf("storage: corrupt snapshot access entry for %q", name)
		}
		pos += n
		attr := string(data[pos : pos+int(l)])
		pos += int(l)
		eq, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, nil, fmt.Errorf("storage: corrupt snapshot access eq for %q", name)
		}
		pos += n
		rng, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, nil, fmt.Errorf("storage: corrupt snapshot access rng for %q", name)
		}
		pos += n
		aux.acc = append(aux.acc, accSpec{attr: attr, eq: eq, rng: rng})
	}
	return t, aux, nil
}

// rebuildAll recomputes zone maps and rebuilds the persisted index catalog
// and access counters for every table, fanned out across par workers.
// Recovery owns the store exclusively here, but each table is still
// processed by exactly one worker.
func (s *Store) rebuildAll(aux map[string]*tableAux, par int) {
	names := s.tablesLocked()
	rebuild := func(name string) {
		t := s.tables[name]
		t.rebuildZonesLocked()
		a := aux[name]
		if a == nil {
			return
		}
		t.initCurationLocked()
		for _, spec := range a.idx {
			t.restoreIndexLocked(spec)
		}
		for _, spec := range a.acc {
			t.access[spec.attr] = &accessStat{eq: spec.eq, rng: spec.rng}
		}
	}
	if par > 1 && len(names) > 1 {
		var wg sync.WaitGroup
		work := make(chan string)
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for name := range work {
					rebuild(name)
				}
			}()
		}
		for _, name := range names {
			work <- name
		}
		close(work)
		wg.Wait()
		return
	}
	for _, name := range names {
		rebuild(name)
	}
}
