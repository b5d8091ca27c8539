package storage

// Incremental checkpoints. A checkpoint writes a consistent snapshot of
// every table at one chosen CSN while ingest continues, records the
// checkpoint horizon (snapshot CSN + the segment that was active when the
// CSN was chosen), and then deletes sealed segments strictly below the
// horizon. Recovery loads the snapshot and replays only frames above it,
// so open time is O(data since the last checkpoint).
//
// Correctness rests on the write tracker. Every mutator allocates its CSN
// through beginWrite — under the tracker lock — and releases it with
// endWrite only after the mutation is installed in the table AND its frame
// appended to the log. The checkpoint barrier reads snapCSN = Now() and
// the active segment index under that same lock, then waits until no
// in-flight write with csn <= snapCSN remains. Two invariants follow:
//
//  1. Every mutation with csn <= snapCSN is fully installed before the
//     snapshot reads begin, so version.at(snapCSN) sees all of them —
//     writes can never race past the snapshot (the old single-file
//     Checkpoint's Truncate(0) lost exactly such writes).
//  2. Any write with csn > snapCSN allocated after the barrier appends to
//     a segment >= the recorded horizon (segment indexes only grow), so
//     deleting segments below the horizon removes only frames whose csn
//     <= snapCSN — all covered by the snapshot. Frames with csn <= snapCSN
//     that live at/above the horizon are skipped during replay instead.
//
// The snapshot itself (format v2, snapshot.go conventions below) is
// written to a .tmp file, fsynced, and renamed over the previous one, so
// a crash mid-checkpoint leaves the old snapshot + old segments intact.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"scdb/internal/model"
)

// snapMagic opens every snapshot.
var snapMagic = []byte("SCSNAP02")

// writeTracker tracks in-flight mutation CSNs so a checkpoint can wait for
// every write at or below its snapshot CSN to finish installing.
type writeTracker struct {
	mu      sync.Mutex
	cond    *sync.Cond
	active  map[CSN]struct{}
	waiters int
}

// beginWrite allocates a commit stamp and marks it in flight. Allocation
// happens under the tracker lock so the checkpoint barrier's Now() read
// can never miss a concurrently allocated lower CSN.
func (s *Store) beginWrite() CSN {
	tr := &s.writes
	tr.mu.Lock()
	csn := s.next()
	tr.active[csn] = struct{}{}
	tr.mu.Unlock()
	return csn
}

// endWrite retires an in-flight commit stamp. Call only after the mutation
// is installed in the table and its log frame appended.
func (s *Store) endWrite(csn CSN) {
	tr := &s.writes
	tr.mu.Lock()
	delete(tr.active, csn)
	if tr.waiters > 0 {
		tr.cond.Broadcast()
	}
	tr.mu.Unlock()
}

// checkpointBarrier chooses the snapshot CSN and horizon segment, then
// waits until no write at or below the CSN is still in flight.
func (s *Store) checkpointBarrier() (CSN, uint64) {
	tr := &s.writes
	tr.mu.Lock()
	snap := s.Now()
	var horizon uint64
	if s.wal != nil {
		s.wal.mu.Lock()
		horizon = s.wal.segIdx
		s.wal.mu.Unlock()
	}
	tr.waiters++
	for {
		pending := false
		for c := range tr.active {
			if c <= snap {
				pending = true
				break
			}
		}
		if !pending {
			break
		}
		tr.cond.Wait()
	}
	tr.waiters--
	tr.mu.Unlock()
	return snap, horizon
}

// Checkpoint writes a durable snapshot of the state at a freshly chosen
// CSN and retires sealed log segments below the checkpoint horizon,
// bounding recovery time. Ingest continues concurrently: the snapshot is
// an MVCC read at the chosen CSN, and nothing is ever truncated — sealed
// segments below the horizon are deleted whole, frames above the snapshot
// CSN replay on the next open. No-op for in-memory stores.
func (s *Store) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.wal.closed.Load() {
		return errWALClosed
	}
	start := nanotime()
	snapCSN, horizon := s.checkpointBarrier()
	if err := s.writeSnapshot(snapCSN, horizon); err != nil {
		return err
	}
	s.ckptCSN.Store(uint64(snapCSN))
	s.wal.noteDurable(snapCSN) // the snapshot covers every stamp <= snapCSN
	// Replication subscribers pin the segment they are streaming; deletion
	// stops at the lowest pin so a slow follower keeps its file. The
	// snapshot still records the barrier horizon — recovery retires the
	// extra segments on the next open.
	s.ckptReclaimed.Add(s.wal.removeBelow(s.pinnedHorizon(horizon)))
	s.ckpts.Add(1)
	s.ckptNS.Add(uint64(nanotime() - start))
	s.wal.ckptMark.Store(s.wal.bytes.Load())
	return nil
}

// writeSnapshot writes a v2 snapshot at snapCSN atomically (tmp + fsync +
// rename). Tables are read under their RLocks one at a time; the barrier
// already guaranteed every mutation <= snapCSN is installed, so per-table
// locking windows cannot lose writes.
//
// Snapshot format v2:
//
//	"SCSNAP02" | uvarint snapCSN | uvarint horizonSeg | uvarint nTables
//	per table: uvarint len(name) | name | uvarint len(section) | section
//	section:   uvarint nextID
//	           uvarint nRows,    per row:  uvarint id | record
//	           uvarint nIndexes, per idx:  uvarint len(attr) | attr |
//	                                       kind byte | pinned byte | uvarint hits
//	           uvarint nAccess,  per attr: uvarint len(attr) | attr |
//	                                       uvarint count | uvarint 0
//
// The kind byte and the second access counter are left from when there
// were two index structures and equality and range touches were counted
// apart: a writer writes 1 and 0, a reader ignores the byte and sums the
// counters, so a snapshot from either time restores every index as the one
// sorted run. The per-table section length lets recovery decode table
// sections in parallel. nextID is persisted so row IDs are never reused
// even when the highest rows were deleted and vacuumed before the
// checkpoint. The index catalog and access counters are the self-curation
// state: hot indexes come back immediately after a restart instead of
// being re-learned.
func (s *Store) writeSnapshot(snapCSN CSN, horizon uint64) error {
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)

	s.mu.RLock()
	names := s.tablesLocked()
	tables := make([]*Table, len(names))
	for i, n := range names {
		tables[i] = s.tables[n]
	}
	s.mu.RUnlock()

	hdr := append([]byte(nil), snapMagic...)
	hdr = binary.AppendUvarint(hdr, uint64(snapCSN))
	hdr = binary.AppendUvarint(hdr, horizon)
	hdr = binary.AppendUvarint(hdr, uint64(len(tables)))
	if _, err := bw.Write(hdr); err != nil {
		return fail(err)
	}
	var section bytes.Buffer
	for i, t := range tables {
		section.Reset()
		t.mu.RLock()
		t.appendSectionLocked(&section, snapCSN)
		t.mu.RUnlock()
		buf := binary.AppendUvarint(nil, uint64(len(names[i])))
		buf = append(buf, names[i]...)
		buf = binary.AppendUvarint(buf, uint64(section.Len()))
		if _, err := bw.Write(buf); err != nil {
			return fail(err)
		}
		if _, err := bw.Write(section.Bytes()); err != nil {
			return fail(err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(s.dir)
	return nil
}

// appendSectionLocked encodes one table's snapshot section at snapCSN.
// Caller holds t.mu (read suffices).
func (t *Table) appendSectionLocked(out *bytes.Buffer, snapCSN CSN) {
	var buf []byte
	buf = binary.AppendUvarint(buf, t.nextID)

	live := make([]RowID, 0, len(t.rows))
	for id, r := range t.rows {
		if r.at(snapCSN) != nil {
			live = append(live, id)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	buf = binary.AppendUvarint(buf, uint64(len(live)))
	out.Write(buf)
	for _, id := range live {
		buf = buf[:0]
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = model.AppendRecord(buf, t.rows[id].at(snapCSN))
		out.Write(buf)
	}

	attrs := make([]string, 0, len(t.indexes))
	for a := range t.indexes {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	buf = binary.AppendUvarint(buf[:0], uint64(len(attrs)))
	out.Write(buf)
	for _, a := range attrs {
		ix := t.indexes[a]
		buf = binary.AppendUvarint(buf[:0], uint64(len(a)))
		buf = append(buf, a...)
		buf = append(buf, 1) // the kind byte, see the format above
		pin := byte(0)
		if ix.pinned {
			pin = 1
		}
		buf = append(buf, pin)
		buf = binary.AppendUvarint(buf, ix.hits)
		out.Write(buf)
	}

	accs := make([]string, 0, len(t.access))
	for a := range t.access {
		accs = append(accs, a)
	}
	sort.Strings(accs)
	buf = binary.AppendUvarint(buf[:0], uint64(len(accs)))
	out.Write(buf)
	for _, a := range accs {
		buf = binary.AppendUvarint(buf[:0], uint64(len(a)))
		buf = append(buf, a...)
		buf = binary.AppendUvarint(buf, t.access[a])
		buf = binary.AppendUvarint(buf, 0)
		out.Write(buf)
	}
}

func (s *Store) tablesLocked() []string {
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// syncDir best-effort fsyncs a directory so a just-renamed snapshot's
// directory entry is durable. Errors are ignored: not all platforms
// support directory fsync, and the rename itself is already atomic.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// checkpointer is the background checkpoint goroutine: it runs a
// checkpoint whenever appended WAL bytes since the last one cross the
// configured threshold (the WAL kicks ckptKick from frame()).
func (s *Store) checkpointer() {
	defer close(s.ckptDone)
	for {
		select {
		case <-s.ckptQuit:
			return
		case <-s.wal.ckptKick:
		}
		if err := s.Checkpoint(); err != nil && !errors.Is(err, errWALClosed) {
			s.ckptErrs.Add(1)
		}
	}
}
