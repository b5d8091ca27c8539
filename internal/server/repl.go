package server

// Replication over the v2 wire: a follower sends V2OpReplSubscribe with its
// applied CSN and the connection becomes a one-way stream of V2OpReplFrames
// — snapshot chunks first if the follower sits below the checkpoint horizon,
// then decoded WAL frames batched under a stability watermark, with empty
// heartbeat batches while the log is idle. The follower reports its applied
// CSN back up the same stream as V2OpReplAck frames; the primary folds the
// acks into sys.replicas and the repl.* gauges.
//
// Frame shipping is exact-once by position: the handler tails the segmented
// log from one cursor and pins the segment it reads, so checkpoints never
// delete a file out from under a live subscriber (a *re*-subscriber whose
// frames are gone bootstraps from the snapshot instead). The watermark sent
// with each batch is storage.StableCSN, advanced only when the tail drain
// has reached the log's end, so it never claims frames the stream has not
// shipped yet — entries stamped above it ride along and the follower
// buffers them until a later watermark covers them.

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scdb/internal/storage"
)

// Replication batch kinds (first payload byte of V2OpReplFrames). Exported
// for the follower in internal/repl, which decodes the stream.
const (
	V2ReplKindEntries   byte = 0 // watermark + WAL entries
	V2ReplKindSnapChunk byte = 1 // one snapshot file chunk
	V2ReplKindSnapDone  byte = 2 // snapshot complete + its CSN
)

// Shipping knobs: chunk size for snapshot bootstrap, framed bytes per
// entries batch, heartbeat cadence on an idle log, and the idle poll.
const (
	replChunkBytes = 256 << 10
	replBatchBytes = 1 << 20
	replHeartbeat  = 500 * time.Millisecond
	replIdlePoll   = 20 * time.Millisecond
)

// EncodeV2ReplSubscribe is the client->server subscription request carrying
// the follower's applied CSN.
func EncodeV2ReplSubscribe(e *V2Enc, id uint32, appliedCSN uint64) []byte {
	e.uvarint(appliedCSN)
	return e.Frame(V2OpReplSubscribe, 0, id)
}

// DecodeV2ReplSubscribe parses a subscription request payload.
func DecodeV2ReplSubscribe(payload []byte) (uint64, error) {
	d, err := newV2Dec(payload, nil)
	if err != nil {
		return 0, err
	}
	return d.uvarint()
}

// EncodeV2ReplAck is the follower's applied-CSN report, routed by the
// subscription's request id.
func EncodeV2ReplAck(e *V2Enc, id uint32, appliedCSN uint64) []byte {
	e.uvarint(appliedCSN)
	return e.Frame(V2OpReplAck, 0, id)
}

// DecodeV2ReplAck parses an ack payload.
func DecodeV2ReplAck(payload []byte) (uint64, error) {
	d, err := newV2Dec(payload, nil)
	if err != nil {
		return 0, err
	}
	return d.uvarint()
}

// EncodeV2ReplFrames encodes a batch of WAL entries under a watermark. An
// empty batch is the stream's heartbeat.
func EncodeV2ReplFrames(e *V2Enc, id uint32, watermark uint64, entries []storage.ReplEntry) []byte {
	e.u8(V2ReplKindEntries)
	e.uvarint(watermark)
	e.uvarint(uint64(len(entries)))
	for i := range entries {
		en := &entries[i]
		e.u8(en.Op)
		e.uvarint(uint64(en.CSN))
		e.str(en.Table)
		e.uvarint(en.RowID)
		e.rawBytes(en.Data)
	}
	return e.Frame(V2OpReplFrames, 0, id)
}

// EncodeV2ReplSnapChunk encodes one snapshot bootstrap chunk.
func EncodeV2ReplSnapChunk(e *V2Enc, id uint32, chunk []byte) []byte {
	e.u8(V2ReplKindSnapChunk)
	e.rawBytes(chunk)
	return e.Frame(V2OpReplFrames, 0, id)
}

// EncodeV2ReplSnapDone closes the snapshot bootstrap with its commit stamp.
func EncodeV2ReplSnapDone(e *V2Enc, id uint32, snapCSN uint64) []byte {
	e.u8(V2ReplKindSnapDone)
	e.uvarint(snapCSN)
	return e.Frame(V2OpReplFrames, 0, id)
}

// V2ReplBatch is one decoded V2OpReplFrames payload.
type V2ReplBatch struct {
	Kind      byte
	Watermark uint64              // V2ReplKindEntries
	Entries   []storage.ReplEntry // V2ReplKindEntries
	Chunk     []byte              // V2ReplKindSnapChunk (aliases the payload)
	SnapCSN   uint64              // V2ReplKindSnapDone
}

// DecodeV2ReplBatch parses any V2OpReplFrames payload. Entry Data and Chunk
// alias the payload buffer.
func DecodeV2ReplBatch(payload []byte) (*V2ReplBatch, error) {
	d, err := newV2Dec(payload, nil)
	if err != nil {
		return nil, err
	}
	kind, err := d.u8()
	if err != nil {
		return nil, err
	}
	b := &V2ReplBatch{Kind: kind}
	switch kind {
	case V2ReplKindEntries:
		if b.Watermark, err = d.uvarint(); err != nil {
			return nil, err
		}
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(payload)) {
			return nil, fmt.Errorf("wire2: repl entry count %d out of bounds", n)
		}
		b.Entries = make([]storage.ReplEntry, n)
		for i := range b.Entries {
			en := &b.Entries[i]
			if en.Op, err = d.u8(); err != nil {
				return nil, err
			}
			csn, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			en.CSN = storage.CSN(csn)
			if en.Table, err = d.str(); err != nil {
				return nil, err
			}
			if en.RowID, err = d.uvarint(); err != nil {
				return nil, err
			}
			if en.Data, err = d.rawBytes(); err != nil {
				return nil, err
			}
		}
		return b, nil
	case V2ReplKindSnapChunk:
		if b.Chunk, err = d.rawBytes(); err != nil {
			return nil, err
		}
		return b, nil
	case V2ReplKindSnapDone:
		if b.SnapCSN, err = d.uvarint(); err != nil {
			return nil, err
		}
		return b, nil
	}
	return nil, fmt.Errorf("wire2: unknown repl batch kind 0x%02x", kind)
}

// --- follower registry ---------------------------------------------------

// replFollower is one live subscription as the primary sees it.
type replFollower struct {
	remote  string
	sentCSN atomic.Uint64 // last shipped watermark
	ackCSN  atomic.Uint64 // follower's last reported applied CSN
	// caughtBytes is the WAL byte counter captured whenever the tail
	// catches up with the log's end; the lag-bytes gauge is the counter's
	// growth since.
	caughtBytes atomic.Uint64
}

// noteAck folds in an applied-CSN report (monotone — a late ack never
// regresses the gauge).
func (fo *replFollower) noteAck(c uint64) {
	for {
		cur := fo.ackCSN.Load()
		if c <= cur || fo.ackCSN.CompareAndSwap(cur, c) {
			return
		}
	}
}

type replRegistry struct {
	mu sync.Mutex
	fs map[*replFollower]struct{}
}

func (r *replRegistry) add(fo *replFollower) {
	r.mu.Lock()
	if r.fs == nil {
		r.fs = make(map[*replFollower]struct{})
	}
	r.fs[fo] = struct{}{}
	r.mu.Unlock()
}

func (r *replRegistry) remove(fo *replFollower) {
	r.mu.Lock()
	delete(r.fs, fo)
	r.mu.Unlock()
}

func (r *replRegistry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.fs)
}

func (r *replRegistry) list() []*replFollower {
	r.mu.Lock()
	out := make([]*replFollower, 0, len(r.fs))
	for fo := range r.fs {
		out = append(out, fo)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].remote < out[j].remote })
	return out
}

// replStats is the node's replication state for the repl.* gauges and
// sys.replicas: the follower hook's view on a replica, the live
// subscriptions on a primary. Only a server over a local store calls it;
// the shard router rejects subscriptions up front.
func (s *Server) replStats() WireReplStats {
	if s.cfg.ReplStats != nil {
		if r := s.cfg.ReplStats(); r != nil {
			return *r
		}
		return WireReplStats{}
	}
	var r WireReplStats
	w := s.node.WALStats()
	for _, fo := range s.repl.list() {
		ack := fo.ackCSN.Load()
		var lag uint64
		if w.AllocatedCSN > ack {
			lag = w.AllocatedCSN - ack
		}
		var lagBytes uint64
		if cb := fo.caughtBytes.Load(); w.Bytes > cb {
			lagBytes = w.Bytes - cb
		}
		if lag > r.LagCSN {
			r.LagCSN = lag
		}
		r.Followers = append(r.Followers, WireFollowerStat{
			Remote:   fo.remote,
			SentCSN:  fo.sentCSN.Load(),
			AckCSN:   ack,
			LagCSN:   lag,
			LagBytes: lagBytes,
		})
	}
	return r
}

// --- subscription handler ------------------------------------------------

// handleReplSubscribe runs one replication subscription to completion: the
// snapshot bootstrap if needed, then the shipping loop until the follower
// disconnects, stalls past the write deadline, or the server drains. It runs
// in the request's own goroutine, outside admission control.
func (s *Server) handleReplSubscribe(vc *v2conn, f V2Frame, req *v2req) (code, detail, errMsg string) {
	detail = "follower:" + vc.c.nc.RemoteAddr().String()
	fail := func(code, msg string) (string, string, string) {
		vc.writeError(f.ID, code, msg)
		return code, detail, msg
	}
	fromCSN, err := DecodeV2ReplSubscribe(f.Payload)
	if err != nil {
		return fail(CodeBadRequest, err.Error())
	}
	db := s.node
	if db == nil {
		return fail(CodeBadRequest, "backend cannot source replication; subscribe to a shard primary, not the router")
	}
	if db.ReadOnly() {
		return fail(CodeBadRequest, "cannot subscribe to a replica; subscribe to the primary")
	}
	st := db.Store()
	base := storage.CSN(fromCSN)

	need, err := st.ReplNeedsSnapshot(base)
	if err != nil {
		return fail(CodeQuery, err.Error())
	}
	if need {
		// A fresh checkpoint makes the shipped snapshot current, so the
		// follower replays only the frames after it.
		if err := db.Checkpoint(); err != nil {
			return fail(CodeQuery, err.Error())
		}
		snapCSN, err := s.shipSnapshot(st, vc, f.ID)
		if err != nil {
			return fail(CodeQuery, "snapshot bootstrap: "+err.Error())
		}
		base = snapCSN
	}

	pos, err := st.ReplStartPos()
	if err != nil {
		return fail(CodeQuery, err.Error())
	}
	pin := st.PinSegments(pos.Seg)
	defer pin.Release()

	fo := &replFollower{remote: vc.c.nc.RemoteAddr().String()}
	fo.ackCSN.Store(uint64(base))
	fo.sentCSN.Store(uint64(base))
	s.repl.add(fo)
	defer s.repl.remove(fo)

	// sentW is the watermark shipped with each batch: the highest stamp the
	// cumulative stream is guaranteed to cover, which the follower publishes
	// as its commit clock once the batch is applied. It advances to a fresh
	// StableCSN only on iterations whose drain reached the log's end — a
	// batch truncated by replBatchBytes is a strict prefix of the log, so
	// frames at or below the new stable stamp may still be un-shipped and
	// publishing it would let the follower's clock run ahead of its state
	// (readers at Now() would miss committed rows). Entries stamped above
	// sentW ride along; the follower buffers them until a later watermark
	// covers them.
	sentW := uint64(base)
	lastSend := time.Now()
	for {
		if s.isDraining() {
			return fail(CodeShutdown, "server draining")
		}
		for drained := false; !drained; {
			select {
			case a := <-req.acks:
				fo.noteAck(a)
			default:
				drained = true
			}
		}
		// The stable stamp is computed before the tail drain: every frame
		// stamped at or below it is already in the log, so once the drain
		// reaches the log's end the shipped stream is a complete prefix up
		// to w.
		w := uint64(st.StableCSN())
		var (
			batch      []storage.ReplEntry
			batchBytes int
			atEnd      bool
		)
		for batchBytes < replBatchBytes {
			prev := pos
			entries, next, end, err := st.TailWAL(pos, replBatchBytes)
			if err != nil {
				// Includes ErrWALTrimmed on a raced initial position; the
				// follower treats the failed stream as fatal and
				// re-bootstraps from the snapshot on reconnect.
				return fail(CodeQuery, err.Error())
			}
			for i := range entries {
				if entries[i].CSN > base {
					batch = append(batch, entries[i])
					batchBytes += len(entries[i].Data) + 16
				}
			}
			pin.Advance(next.Seg)
			pos = next
			if end {
				atEnd = true
				break
			}
			if len(entries) == 0 && next == prev {
				break // torn frame at the active tail; completes later
			}
		}
		if atEnd && w > sentW {
			sentW = w
		}
		if len(batch) > 0 || sentW > fo.sentCSN.Load() || time.Since(lastSend) >= replHeartbeat {
			e := GetV2Enc()
			werr := vc.write(EncodeV2ReplFrames(e, f.ID, sentW, batch))
			e.Release()
			if werr != nil {
				return CodeCanceled, detail, "follower gone or stalled: " + werr.Error()
			}
			lastSend = time.Now()
			fo.sentCSN.Store(sentW)
		}
		if atEnd {
			fo.caughtBytes.Store(db.WALStats().Bytes)
		}
		if len(batch) == 0 {
			// Idle log, torn frame at the active tail, or a catch-up stretch
			// entirely below the subscriber's base: nothing shipped, so poll
			// instead of spinning on flush+read.
			time.Sleep(replIdlePoll)
		}
	}
}

// shipSnapshot streams the checkpoint snapshot file as chunk frames and
// closes with the done marker, returning the snapshot's commit stamp.
func (s *Server) shipSnapshot(st *storage.Store, vc *v2conn, id uint32) (storage.CSN, error) {
	fh, size, snapCSN, err := st.OpenSnapshot()
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	buf := make([]byte, replChunkBytes)
	for off := int64(0); off < size; {
		n, rerr := fh.ReadAt(buf, off)
		if n > 0 {
			e := GetV2Enc()
			werr := vc.write(EncodeV2ReplSnapChunk(e, id, buf[:n]))
			e.Release()
			if werr != nil {
				return 0, werr
			}
			off += int64(n)
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			return 0, rerr
		}
	}
	e := GetV2Enc()
	werr := vc.write(EncodeV2ReplSnapDone(e, id, uint64(snapCSN)))
	e.Release()
	if werr != nil {
		return 0, werr
	}
	return snapCSN, nil
}
