package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Log operation codes.
const (
	opCreateTable byte = 1
	opInsert      byte = 2
	opUpdate      byte = 3
	opDelete      byte = 4
	// opBatch frames several mutations against one table as a single
	// checksummed unit: the frame's rowID slot carries the entry count and
	// the payload concatenates [op][uvarint rowID][uvarint len][record].
	// Because one checksum covers the whole frame, a batch is atomic under
	// crash recovery — it is either fully replayed or truncated away.
	opBatch byte = 5
)

// SyncPolicy selects when committed log frames reach stable storage.
type SyncPolicy int

const (
	// SyncNone buffers frames in user space; they reach the OS on
	// Sync/Checkpoint/Close. Fastest; a crash loses the buffered tail.
	SyncNone SyncPolicy = iota
	// SyncGroup makes every commit wait until its frame is flushed and
	// fsynced. A committer that finds no flush in flight leads one, so a
	// lone writer pays one inline fsync; commits that arrive while a flush
	// is in flight share the next one (group commit), so a burst of N
	// concurrent writers pays ~2 fsyncs, not N.
	SyncGroup
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncGroup:
		return "group"
	}
	return fmt.Sprintf("syncpolicy(%d)", int(p))
}

// ParseSyncPolicy maps the flag spelling to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "none":
		return SyncNone, nil
	case "group":
		return SyncGroup, nil
	}
	return SyncNone, fmt.Errorf("storage: unknown sync policy %q (want none or group)", s)
}

// wal is the append-only durability log, split into bounded segment files
// (segment.go). Each frame is [u32 length][u64 FNV-1a checksum][payload];
// a torn tail (short or checksum-mismatched frame) is truncated on
// recovery rather than failing the open, as a crash mid-append is expected
// behaviour. Frame payloads carry the mutation's commit stamp so recovery
// can skip entries already covered by a checkpoint snapshot.
//
// All frame writes go through log/logBatch, which serialize on mu — the
// bufio.Writer is shared, so an unserialized append from two goroutines
// would interleave frame bytes and corrupt the log.
type wal struct {
	mu      sync.Mutex // serializes frame writes, seq, buffer flushes, rotation
	f       *os.File   // active segment
	w       *bufio.Writer
	dir     string
	pol     SyncPolicy
	seq     uint64 // frames appended (under mu)
	segIdx  uint64 // active segment index (under mu)
	segSize int64  // bytes in the active segment, header included (under mu)
	segMax  int64  // rotation threshold
	closed  atomic.Bool

	// appendedCSN is the highest commit stamp framed so far (under mu).
	// durable is the highest stamp known to be on stable storage — advanced
	// monotonically after a successful frame fsync, sealed-segment rotation,
	// or checkpoint snapshot. The gap between the store's allocated clock
	// and durable is the crash-loss window; replication lag is measured
	// against the same stamps, so the two surfaces agree.
	appendedCSN CSN
	durable     atomic.Uint64

	// fileMu guards fsync calls and the active-file swap during rotation,
	// so a flush leader (which syncs outside mu) never fsyncs a closed
	// handle. Lock order: mu → fileMu, never the reverse.
	fileMu sync.Mutex

	segCount atomic.Int64 // segment files on disk

	// ckptEvery/ckptMark drive the background checkpointer: when appended
	// bytes since the last checkpoint (bytes - ckptMark) cross ckptEvery,
	// frame() kicks ckptKick. <=0 disables.
	ckptEvery int64
	ckptMark  atomic.Uint64
	ckptKick  chan struct{}

	// Durability counters, read by Store.WALStats for the metrics surface
	// and ingest traces. Atomics: bytes is bumped under mu but read
	// without it; fsyncs/waitNS are bumped from concurrent committers.
	bytes   atomic.Uint64 // framed bytes appended (headers included)
	fsyncs  atomic.Uint64 // fsync calls issued
	syncNS  atomic.Uint64 // time spent inside fsync
	waitNS  atomic.Uint64 // time commits spent waiting for durability
	commits atomic.Uint64 // commits that waited for durability

	// Group-commit state, under flushMu: flushing is set while a leader
	// flushes and fsyncs; the others wait on cond until flushed covers
	// their frame, a flush failed (sticky flushErr), or no flush is in
	// flight and one of them leads the next.
	flushMu  sync.Mutex
	cond     *sync.Cond
	flushing bool
	flushed  uint64
	flushErr error
}

// newWAL opens segment activeIdx for appending, creating it if needed.
// segCount is the number of segment files currently on disk, activeIdx
// included.
func newWAL(dir string, pol SyncPolicy, activeIdx uint64, segCount int, segMax, ckptEvery int64) (*wal, error) {
	f, size, err := openActiveSegment(dir, activeIdx)
	if err != nil {
		return nil, err
	}
	if segMax <= 0 {
		segMax = DefaultSegmentBytes
	}
	w := &wal{
		f: f, w: bufio.NewWriter(f), dir: dir, pol: pol,
		segIdx: activeIdx, segSize: size, segMax: segMax,
		ckptEvery: ckptEvery,
	}
	w.segCount.Store(int64(segCount))
	if ckptEvery > 0 {
		w.ckptKick = make(chan struct{}, 1)
	}
	w.cond = sync.NewCond(&w.flushMu)
	return w, nil
}

// errWALClosed fails appends that arrive after close instead of buffering
// frames that can never reach disk.
var errWALClosed = errors.New("storage: wal is closed")

// close refuses further frames, then takes the leader's turn for the last
// time: one flush and fsync, under every policy, covers every frame
// appended, and each commit still waiting for one of them returns nil.
func (w *wal) close() error {
	if w.closed.Swap(true) {
		return nil
	}
	err := w.syncAll()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// frame writes one framed payload under mu and returns its sequence
// number. csn is the mutation's commit stamp, recorded in the payload so
// recovery can skip frames at or below a checkpoint's snapshot CSN. The
// caller then commits the frame per the sync policy. Crossing the segment
// size threshold rotates after the append, so a frame never spans files.
func (w *wal) frame(op byte, csn CSN, table string, rowID uint64, data []byte) (uint64, error) {
	payload := make([]byte, 0, 1+10+10+len(table)+10+len(data))
	payload = append(payload, op)
	payload = binary.AppendUvarint(payload, uint64(csn))
	payload = binary.AppendUvarint(payload, uint64(len(table)))
	payload = append(payload, table...)
	payload = binary.AppendUvarint(payload, rowID)
	payload = binary.AppendUvarint(payload, uint64(len(data)))
	payload = append(payload, data...)

	h := fnv.New64a()
	h.Write(payload)

	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[4:12], h.Sum64())

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		return 0, errWALClosed
	}
	if _, err := w.w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("storage: wal append: %w", err)
	}
	if _, err := w.w.Write(payload); err != nil {
		return 0, fmt.Errorf("storage: wal append: %w", err)
	}
	w.seq++
	if csn > w.appendedCSN {
		w.appendedCSN = csn
	}
	n := len(hdr) + len(payload)
	w.bytes.Add(uint64(n))
	w.segSize += int64(n)
	if w.segSize >= w.segMax {
		if err := w.rotateLocked(); err != nil {
			return 0, fmt.Errorf("storage: wal rotate: %w", err)
		}
	}
	if w.ckptKick != nil && int64(w.bytes.Load()-w.ckptMark.Load()) >= w.ckptEvery {
		select {
		case w.ckptKick <- struct{}{}:
		default:
		}
	}
	return w.seq, nil
}

// log appends one framed operation and commits it per the sync policy.
// data is the op-specific payload (an encoded record for insert/update,
// concatenated sub-entries for a batch, nil otherwise).
func (w *wal) log(op byte, csn CSN, table string, rowID uint64, data []byte) error {
	seq, err := w.frame(op, csn, table, rowID, data)
	if err != nil {
		return err
	}
	return w.commit(seq)
}

// batchEntry is one row mutation of the log: an entry of a multi-record
// frame, or what a single-row frame carries (ReplEntry.mutations).
type batchEntry struct {
	op    byte
	rowID uint64
	data  []byte
}

// logBatch appends one multi-record frame covering every entry and commits
// it once: one checksum, one buffer write, and (under SyncGroup) at most
// one fsync for the whole batch.
func (w *wal) logBatch(table string, csn CSN, entries []batchEntry) error {
	if len(entries) == 0 {
		return nil
	}
	size := 0
	for _, e := range entries {
		size += 1 + 10 + 10 + len(e.data)
	}
	data := make([]byte, 0, size)
	for _, e := range entries {
		data = append(data, e.op)
		data = binary.AppendUvarint(data, e.rowID)
		data = binary.AppendUvarint(data, uint64(len(e.data)))
		data = append(data, e.data...)
	}
	return w.log(opBatch, csn, table, uint64(len(entries)), data)
}

// commit makes frame seq durable per the policy before returning.
func (w *wal) commit(seq uint64) error {
	if w.pol == SyncNone {
		return nil
	}
	start := nanotime()
	w.flushMu.Lock()
	for w.flushed < seq && w.flushErr == nil {
		if w.flushing {
			w.cond.Wait() // covered by that flush, or one of us leads the next
		} else {
			w.leadLocked()
		}
	}
	err := w.flushErr
	w.flushMu.Unlock()
	w.waitNS.Add(uint64(nanotime() - start))
	w.commits.Add(1)
	return err
}

// syncAll waits out a flush in flight, then leads one of its own, so every
// frame appended before the call is on stable storage when it returns nil.
func (w *wal) syncAll() error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	for w.flushing {
		w.cond.Wait()
	}
	w.leadLocked()
	return w.flushErr
}

// leadLocked flushes and fsyncs every frame appended so far, then records
// what that covered and wakes the waiters. The caller holds flushMu with no
// flush in flight; it is released for the flush itself, so committers that
// arrive meanwhile frame and wait rather than queue behind the fsync.
func (w *wal) leadLocked() {
	w.flushing = true
	w.flushMu.Unlock()
	w.mu.Lock()
	target, tcsn := w.seq, w.appendedCSN
	err := w.w.Flush()
	w.mu.Unlock()
	if err == nil {
		// The sync may land on a newer segment if a rotation slipped in
		// between the flush and here; that is still correct, because the
		// rotation itself fsynced the sealed segment holding our frames.
		err = w.fsync(tcsn)
	}
	w.flushMu.Lock()
	w.flushing = false
	if err != nil {
		if w.flushErr == nil {
			w.flushErr = err // sticky: a lost frame can't be un-lost
		}
	} else if target > w.flushed {
		w.flushed = target
	}
	w.cond.Broadcast()
}

// fsync is the one place the log fsyncs a segment: it syncs the active
// file, counts the call and its time, and on success marks every stamp up
// to tcsn durable. The caller flushed the buffer first and does not hold
// fileMu.
func (w *wal) fsync(tcsn CSN) error {
	start := nanotime()
	w.fileMu.Lock()
	err := w.f.Sync()
	w.fileMu.Unlock()
	w.fsyncs.Add(1)
	w.syncNS.Add(uint64(nanotime() - start))
	if err == nil {
		w.noteDurable(tcsn)
	}
	return err
}

// noteDurable advances the durable commit stamp monotonically.
func (w *wal) noteDurable(c CSN) {
	for {
		cur := w.durable.Load()
		if uint64(c) <= cur || w.durable.CompareAndSwap(cur, uint64(c)) {
			return
		}
	}
}

// Sync flushes buffered log frames and fsyncs the active segment.
func (s *Store) Sync() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.syncAll()
}

// WALStats is a point-in-time readout of the durability log's counters.
// The zero value is returned for in-memory stores (no WAL).
type WALStats struct {
	// Frames is log frames appended; Bytes is their total framed size
	// including headers.
	Frames uint64
	Bytes  uint64
	// Fsyncs counts fsync system calls; FsyncTime is time spent inside
	// them. Under SyncGroup, Commits/CommitWait measure how long
	// committers waited for durability — group commit shows many commits
	// per fsync.
	Fsyncs     uint64
	FsyncTime  time.Duration
	Commits    uint64
	CommitWait time.Duration
	// Segments is segment files on disk; SegmentIndex is the active
	// (highest, append-target) segment.
	Segments     int
	SegmentIndex uint64
	// Checkpoints counts completed checkpoints; CheckpointCSN is the
	// snapshot CSN of the latest one; CheckpointReclaimed is total bytes
	// of sealed segments deleted below checkpoint horizons; CheckpointTime
	// is cumulative time spent writing snapshots.
	Checkpoints         uint64
	CheckpointCSN       uint64
	CheckpointReclaimed uint64
	CheckpointTime      time.Duration
	// RecoveryTime is how long the last Open spent in recovery (snapshot
	// load + segment replay + access-path rebuild).
	RecoveryTime time.Duration
	// DurableCSN is the highest commit stamp known to be on stable storage
	// (frame fsync, sealed-segment rotation, or checkpoint snapshot);
	// AllocatedCSN is the store's current commit clock. Their gap is the
	// crash-loss window. Replication watermarks are measured against the
	// same stamps, so group-commit and replication metrics agree.
	DurableCSN   uint64
	AllocatedCSN uint64
}

// WALStats reports the write-ahead log's durability counters.
func (s *Store) WALStats() WALStats {
	if s.wal == nil {
		return WALStats{}
	}
	w := s.wal
	w.mu.Lock()
	frames := w.seq
	segIdx := w.segIdx
	w.mu.Unlock()
	return WALStats{
		Frames:              frames,
		Bytes:               w.bytes.Load(),
		Fsyncs:              w.fsyncs.Load(),
		FsyncTime:           time.Duration(w.syncNS.Load()),
		Commits:             w.commits.Load(),
		CommitWait:          time.Duration(w.waitNS.Load()),
		Segments:            int(w.segCount.Load()),
		SegmentIndex:        segIdx,
		Checkpoints:         s.ckpts.Load(),
		CheckpointCSN:       s.ckptCSN.Load(),
		CheckpointReclaimed: s.ckptReclaimed.Load(),
		CheckpointTime:      time.Duration(s.ckptNS.Load()),
		RecoveryTime:        time.Duration(s.recoverNS.Load()),
		DurableCSN:          w.durable.Load(),
		AllocatedCSN:        s.csn.Load(),
	}
}

// nanotime is time.Now().UnixNano() behind a name that keeps call sites
// terse inside the commit paths.
func nanotime() int64 { return time.Now().UnixNano() }
