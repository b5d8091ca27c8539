package storage

// Replication support: the primary-side WAL tailing API and the
// follower-side replay entry points.
//
// A primary ships its log as decoded frames. The shipping loop computes a
// watermark with StableCSN — every mutation at or below it is installed and
// appended to the log — then drains frames from the segment files with
// TailWAL. A follower applies shipped frames with ApplyRepl, re-logs each
// into its own WAL, and finally publishes the batch watermark as its commit
// clock. Readers at Now() therefore never observe a partially applied
// batch, and a follower crash leaves an exact CSN-prefix of the primary's
// history in its local log.
//
// The follower installs the log by the one rule recovery uses
// (recovery.go): every row mutation goes through Table.applyLogged in
// commit-stamp order. A shipped batch is sorted by stamp, and a watermark
// only ever covers a complete prefix, so no later batch holds a lower
// stamp. What differs from recovery stays here: the follower takes the
// table latch and maintains zone maps and indexes as it goes, because it
// serves queries while frames land.
//
// Checkpoints interact with shipping through segment pins: a subscriber
// pins the segment it is reading, and Checkpoint caps its deletion horizon
// at the lowest pinned segment, so a slow follower can keep streaming a
// sealed segment that a checkpoint has already covered. A follower that
// disconnects releases its pin; if the log it needs is gone by the time it
// resubscribes (ErrWALTrimmed / ReplNeedsSnapshot), it bootstraps from the
// primary's snapshot file instead.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// ReplEntry is one decoded WAL frame in shipping form. Op and Data use the
// log's internal encoding (opaque to the wire layer); for batch frames
// RowID carries the entry count, exactly as framed on disk.
type ReplEntry struct {
	Op    byte
	CSN   CSN
	Table string
	RowID uint64
	Data  []byte
}

// WALPos addresses a frame boundary in the segmented log. Off == 0 means
// "start of the segment" (the header magic is skipped on read).
type WALPos struct {
	Seg uint64
	Off int64
}

// ErrWALTrimmed reports that the segment a reader needs has been deleted by
// a checkpoint; the subscriber must bootstrap from a snapshot instead.
var ErrWALTrimmed = errors.New("storage: wal segment trimmed below reader position")

// errNotDurable fails replication entry points on in-memory stores.
var errNotDurable = errors.New("storage: replication requires a durable store")

// SnapshotPath returns the checkpoint snapshot's path inside dir — where a
// follower bootstrap writes a shipped snapshot before opening the store.
func SnapshotPath(dir string) string { return filepath.Join(dir, snapshotName) }

// StableCSN returns the highest commit stamp w such that every mutation
// with csn <= w is installed in the tables and appended to the log. It is
// the replication watermark: frames at or below it may be shipped as a
// consistent prefix. Computed under the write-tracker lock, like the
// checkpoint barrier: one less than the lowest in-flight CSN, or Now() when
// nothing is in flight.
func (s *Store) StableCSN() CSN {
	tr := &s.writes
	tr.mu.Lock()
	defer tr.mu.Unlock()
	w := s.Now()
	for c := range tr.active {
		if c-1 < w {
			w = c - 1
		}
	}
	return w
}

// ReplNeedsSnapshot reports whether a follower whose applied CSN is the
// given stamp can be served from the retained log, or must bootstrap from a
// checkpoint snapshot first. A follower below the latest checkpoint CSN
// needs frames that checkpoints may already have deleted.
func (s *Store) ReplNeedsSnapshot(applied CSN) (bool, error) {
	if s.wal == nil {
		return false, errNotDurable
	}
	return applied < CSN(s.ckptCSN.Load()), nil
}

// ReplStartPos returns the position of the earliest retained log frame —
// where a subscriber that needs the full retained history starts reading.
func (s *Store) ReplStartPos() (WALPos, error) {
	if s.wal == nil {
		return WALPos{}, errNotDurable
	}
	idxs, err := listSegments(s.dir)
	if err != nil {
		return WALPos{}, err
	}
	if len(idxs) == 0 {
		s.wal.mu.Lock()
		seg := s.wal.segIdx
		s.wal.mu.Unlock()
		return WALPos{Seg: seg}, nil
	}
	return WALPos{Seg: idxs[0]}, nil
}

// TailWAL reads committed frames starting at pos, first flushing the write
// buffer so the segment files reflect every appended frame. At most
// maxBytes of framed data is decoded per call (<= 0 means 1 MiB), except
// that a single frame larger than maxBytes is still read whole — every call
// with data available makes progress. It returns the decoded entries, the
// next read position, and atEnd — whether the read caught up with the
// active segment's current end. A deleted segment returns ErrWALTrimmed; a
// frame in a sealed segment that is not intact returns ErrCorrupt, wrapped
// with the segment and byte offset.
// Entry Data slices alias the read buffer and are valid until the caller
// discards them.
func (s *Store) TailWAL(pos WALPos, maxBytes int64) (entries []ReplEntry, next WALPos, atEnd bool, err error) {
	w := s.wal
	if w == nil {
		return nil, pos, false, errNotDurable
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	maxBytes = max(maxBytes, 12) // one frame header, whose length widens a short read
	w.mu.Lock()
	if w.closed.Load() {
		w.mu.Unlock()
		return nil, pos, false, errWALClosed
	}
	ferr := w.w.Flush()
	active := w.segIdx
	activeSize := w.segSize
	w.mu.Unlock()
	if ferr != nil {
		return nil, pos, false, ferr
	}
	if pos.Seg > active {
		return nil, pos, true, nil
	}
	if pos.Seg == active && pos.Off > 0 && pos.Off >= activeSize {
		// Caught-up fast path: nothing appended since the last call, so the
		// idle poll never touches the file.
		return nil, pos, true, nil
	}
	f, err := os.Open(segPath(s.dir, pos.Seg))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, pos, false, ErrWALTrimmed
		}
		return nil, pos, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, pos, false, err
	}
	size := fi.Size()
	if pos.Off == 0 {
		pos.Off = int64(len(segMagic))
	}
	collect := func(e ReplEntry) error {
		entries = append(entries, e)
		return nil
	}
	// Read only the tail past the cursor, bounded by maxBytes; a segment is
	// never re-read whole on every poll.
	remain := size - pos.Off
	readLen := remain
	truncated := false
	if readLen > maxBytes {
		readLen, truncated = maxBytes, true
	}
	var valid int64
	if readLen > 0 {
		buf := make([]byte, readLen)
		if _, err := f.ReadAt(buf, pos.Off); err != nil {
			return nil, pos, false, err
		}
		if valid, err = parseFrames(buf, 0, collect); err != nil {
			return nil, pos, false, err
		}
		if truncated && valid == 0 {
			// The first frame alone exceeds maxBytes (e.g. a large ingest
			// batch): widen the read to its boundary so the cursor advances
			// instead of re-truncating the same frame forever.
			if need := int64(binary.BigEndian.Uint32(buf[:4])) + 12; need > readLen && need <= remain {
				buf = make([]byte, need)
				if _, err := f.ReadAt(buf, pos.Off); err != nil {
					return nil, pos, false, err
				}
				if valid, err = parseFrames(buf, 0, collect); err != nil {
					return nil, pos, false, err
				}
				truncated = need < remain
			}
		}
	}
	next = WALPos{Seg: pos.Seg, Off: pos.Off + valid}
	if pos.Seg < active {
		// Sealed segments are immutable and fully framed; reaching their end
		// advances to the next segment (indexes are consecutive — rotation
		// is sequential and checkpoints delete only a prefix). A frame that
		// is still not intact after the widened read never will be.
		if next.Off >= size {
			next = WALPos{Seg: pos.Seg + 1}
		} else if valid == 0 {
			return nil, pos, false, fmt.Errorf("%w: segment %d at byte %d: frame is not intact", ErrCorrupt, pos.Seg, pos.Off)
		}
		return entries, next, false, nil
	}
	// Active segment: a partial frame at the tail belongs to an append in
	// flight and completes on a later call.
	return entries, next, next.Off >= size && !truncated, nil
}

// OpenSnapshot opens the current checkpoint snapshot for bootstrap
// shipping, returning the open file, its size, and the snapshot's commit
// stamp parsed from its own header (so a concurrent checkpoint swapping the
// file underneath never mismatches stamp and content).
func (s *Store) OpenSnapshot() (*os.File, int64, CSN, error) {
	if s.dir == "" {
		return nil, 0, 0, errNotDurable
	}
	f, err := os.Open(filepath.Join(s.dir, snapshotName))
	if err != nil {
		return nil, 0, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, 0, err
	}
	hdr := make([]byte, len(snapMagic)+binary.MaxVarintLen64)
	n, err := f.ReadAt(hdr, 0)
	if n < len(snapMagic)+1 && err != nil {
		f.Close()
		return nil, 0, 0, err
	}
	if !bytes.HasPrefix(hdr[:n], snapMagic) {
		f.Close()
		return nil, 0, 0, errors.New("storage: snapshot is not v2; run a checkpoint first")
	}
	snapCSN, un := binary.Uvarint(hdr[len(snapMagic):n])
	if un <= 0 {
		f.Close()
		return nil, 0, 0, errors.New("storage: corrupt snapshot header")
	}
	return f, fi.Size(), CSN(snapCSN), nil
}

// --- segment pins --------------------------------------------------------

// SegmentPin holds segments at or above its position against checkpoint
// deletion while a replication subscriber streams them. Pins only bound
// deletion, never snapshot contents; release promptly on disconnect.
type SegmentPin struct {
	s   *Store
	seg uint64
}

// PinSegments registers a pin at the given segment index.
func (s *Store) PinSegments(seg uint64) *SegmentPin {
	p := &SegmentPin{s: s, seg: seg}
	s.pinMu.Lock()
	if s.pins == nil {
		s.pins = make(map[*SegmentPin]struct{})
	}
	s.pins[p] = struct{}{}
	s.pinMu.Unlock()
	return p
}

// Advance moves the pin forward (it never retreats).
func (p *SegmentPin) Advance(seg uint64) {
	p.s.pinMu.Lock()
	if seg > p.seg {
		p.seg = seg
	}
	p.s.pinMu.Unlock()
}

// Release drops the pin; the next checkpoint may delete its segments.
func (p *SegmentPin) Release() {
	p.s.pinMu.Lock()
	delete(p.s.pins, p)
	p.s.pinMu.Unlock()
}

// pinnedHorizon caps a checkpoint's deletion horizon at the lowest pinned
// segment, so streaming subscribers never lose a file out from under them.
// The snapshot still records the barrier horizon — recovery retires the
// extra retained segments on the next open.
func (s *Store) pinnedHorizon(horizon uint64) uint64 {
	s.pinMu.Lock()
	for p := range s.pins {
		if p.seg < horizon {
			horizon = p.seg
		}
	}
	s.pinMu.Unlock()
	return horizon
}

// --- follower apply ------------------------------------------------------

// ApplyRepl installs shipped frames and publishes watermark as the store's
// commit clock. Every entry's CSN must be <= watermark (the shipper
// guarantees the prefix is stable), and the caller must be the store's only
// writer — replication apply does not take the write tracker, because the
// follower's clock is advanced only here, after installation, so readers at
// Now() never see a partial batch.
//
// Entries are applied in ascending stamp order (stable for equal stamps —
// a transaction's write set shares one stamp across frames), each frame is
// re-logged to the follower's own WAL at its recorded stamp, and batch
// frames stay single frames. The follower's log is therefore stamp-sorted:
// a crash leaves an exact stamp-prefix, and recovery's max-CSN clock
// restore resubscribes precisely where shipping stopped. The re-logged
// frames commit once, per the sync policy, before the watermark publishes:
// a shipped batch costs one fsync, not one a frame.
func (s *Store) ApplyRepl(entries []ReplEntry, watermark CSN) error {
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].CSN < entries[j].CSN })
	var seq uint64
	for i := range entries {
		if entries[i].CSN > watermark {
			return fmt.Errorf("storage: replicated frame csn %d above watermark %d", entries[i].CSN, watermark)
		}
		var err error
		if seq, err = s.applyReplEntry(&entries[i]); err != nil {
			return err
		}
	}
	if seq > 0 {
		if err := s.wal.commit(seq); err != nil {
			return err
		}
	}
	if len(entries) > 0 {
		defer s.installs.Add(1) // once the watermark is published below
	}
	for {
		cur := s.csn.Load()
		if cur >= uint64(watermark) || s.csn.CompareAndSwap(cur, uint64(watermark)) {
			return nil
		}
	}
}

// applyReplEntry installs one shipped frame under the table latch, keeping
// zone maps and indexes live, then frames it into the log at its recorded
// stamp, uncommitted; it returns the frame's sequence (0 in memory).
func (s *Store) applyReplEntry(e *ReplEntry) (uint64, error) {
	if e.Op == opCreateTable {
		s.mu.Lock()
		if _, ok := s.tables[e.Table]; !ok {
			s.tables[e.Table] = newTable(s, e.Table)
			s.schemaVer.Add(1)
		}
		s.mu.Unlock()
	} else {
		t, ok := s.Table(e.Table)
		if !ok {
			return 0, fmt.Errorf("storage: replicated frame references unknown table %q", e.Table)
		}
		t.mu.Lock()
		err := e.mutations(func(m batchEntry) error {
			rec, err := t.applyLogged(m, e.CSN)
			if err != nil {
				return err
			}
			t.noteWriteLocked(RowID(m.rowID), rec, m.op == opInsert)
			return nil
		})
		t.mu.Unlock()
		if err != nil {
			return 0, err
		}
	}
	if s.wal != nil {
		return s.wal.frame(e.Op, e.CSN, e.Table, e.RowID, e.Data)
	}
	return 0, nil
}
