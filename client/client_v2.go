package client

// Request multiplexing: one reader goroutine decodes every inbound frame
// and routes it to the waiting call by request id, so many calls can be in
// flight on one connection at once and responses may complete out of order.

import (
	"context"
	"errors"
	"sync"
	"time"

	"scdb/internal/model"
	"scdb/internal/server"
)

// v2call is one in-flight request. The reader goroutine owns rows, vals,
// res, code, msg and err until it signals ready; the caller reads them
// only after.
//
// A connection reuses its calls: a call the caller saw complete goes back
// to the connection's free list (recycle) with its ready signal and its
// values scratch. A call that did not complete — forgotten past
// deadlineGrace or after a failed write, or failed by failAllV2 — never
// does: the reader may still hold it and signal it late, or a signal may
// be pending in it for a caller that is gone.
type v2call struct {
	id    uint32
	ready chan struct{} // the reader's one signal, buffered: it never waits
	// keep makes row batches decode into fresh arrays the caller keeps;
	// otherwise into vals, the call's values scratch.
	keep      bool
	rows      [][]model.Value
	vals      []model.Value
	res       server.V2Result
	code, msg string
	err       error
}

// v2KeptCells bounds the values scratch a recycled call keeps, so one wide
// result does not pin its size on the connection.
const v2KeptCells = 16 << 10

// v2FreeCalls bounds a connection's free list.
const v2FreeCalls = 16

// v2state is the multiplexing machinery of a Client.
type v2state struct {
	wmu sync.Mutex // serializes frame writes

	// rb is the read loop's frame buffers, kept across frames: every
	// decoder the loop calls copies what it returns.
	rb server.V2ReadBuf

	pmu    sync.Mutex
	nextID uint32
	calls  map[uint32]*v2call
	free   []*v2call // completed calls, ready for reuse
}

// readLoopV2 is the connection's single frame reader: it decodes every
// inbound frame and routes it by request id. Frames for forgotten ids
// (calls abandoned past their grace) are discarded, which is what keeps
// an abandoned call from poisoning the connection.
func (c *Client) readLoopV2() {
	rb := &c.v2.rb
	for {
		f, err := rb.Read(c.br, server.DefaultMaxFrame, true)
		if err != nil {
			c.failAllV2(err)
			return
		}
		c.v2.pmu.Lock()
		ca := c.v2.calls[f.ID]
		c.v2.pmu.Unlock()
		if ca == nil {
			continue
		}
		switch f.Op {
		case server.V2OpRowBatch:
			var rows [][]model.Value
			if ca.keep {
				rows, _, err = rb.DecodeRows(f.Payload, ca.rows, nil)
			} else {
				rows, ca.vals, err = rb.DecodeRows(f.Payload, ca.rows, ca.vals)
			}
			if err != nil {
				ca.err = err
				c.finishV2(f.ID, ca)
				continue
			}
			ca.rows = rows
		case server.V2OpResult:
			ca.err = rb.DecodeResult(f.Payload, &ca.res)
			c.finishV2(f.ID, ca)
		case server.V2OpError:
			ca.code, ca.msg, ca.err = server.DecodeV2Error(f.Payload)
			c.finishV2(f.ID, ca)
		}
	}
}

func (c *Client) finishV2(id uint32, ca *v2call) {
	c.v2.pmu.Lock()
	if c.v2.calls[id] == ca {
		delete(c.v2.calls, id)
	}
	c.v2.pmu.Unlock()
	ca.ready <- struct{}{}
}

// failAllV2 breaks the connection: every pending call fails with err.
func (c *Client) failAllV2(err error) {
	c.broken.Store(true)
	c.nc.Close()
	c.v2.pmu.Lock()
	calls := c.v2.calls
	c.v2.calls = map[uint32]*v2call{}
	c.v2.pmu.Unlock()
	for _, ca := range calls {
		ca.err = err
		ca.ready <- struct{}{}
	}
}

// newCallV2 takes a call off the free list (or makes one), gives it a new
// request id, registers it for routing and hands out an encoder for its
// request frame. keep says whether the caller keeps the call's rows.
func (c *Client) newCallV2(keep bool) (*v2call, *server.V2Enc) {
	c.v2.pmu.Lock()
	var ca *v2call
	if n := len(c.v2.free); n > 0 {
		ca = c.v2.free[n-1]
		c.v2.free[n-1] = nil
		c.v2.free = c.v2.free[:n-1]
	} else {
		ca = &v2call{ready: make(chan struct{}, 1)}
	}
	c.v2.nextID++
	ca.id = c.v2.nextID
	ca.keep = keep
	c.v2.calls[ca.id] = ca
	c.v2.pmu.Unlock()
	return ca, server.GetV2Enc()
}

// recycle hands a completed call back to the free list once the caller
// has copied out what it returns: the scratch is cleared, so a kept call
// keeps no answer alive.
func (c *Client) recycle(ca *v2call) {
	clear(ca.rows)
	clear(ca.vals)
	ca.rows, ca.vals = ca.rows[:0], ca.vals[:0]
	if cap(ca.vals) > v2KeptCells {
		ca.rows, ca.vals = nil, nil
	}
	ca.res = server.V2Result{}
	ca.code, ca.msg, ca.err = "", "", nil
	c.v2.pmu.Lock()
	if len(c.v2.free) < v2FreeCalls {
		c.v2.free = append(c.v2.free, ca)
	}
	c.v2.pmu.Unlock()
}

func (c *Client) forgetV2(id uint32) {
	c.v2.pmu.Lock()
	delete(c.v2.calls, id)
	c.v2.pmu.Unlock()
}

// writeFramesV2 writes complete frames under the write mutex. Frames from
// concurrent calls may interleave on the wire — ids route them — but a
// single frame is never torn. A write error poisons the connection (a
// half-written frame cannot be resynchronized).
func (c *Client) writeFramesV2(frames ...[]byte) error {
	c.v2.wmu.Lock()
	defer c.v2.wmu.Unlock()
	if c.broken.Load() {
		return errors.New("scdb client: connection is closed")
	}
	for _, fr := range frames {
		if _, err := c.nc.Write(fr); err != nil {
			c.broken.Store(true)
			c.nc.Close()
			return err
		}
	}
	return nil
}

func (c *Client) sendCancelV2(id uint32) {
	e := server.GetV2Enc()
	c.writeFramesV2(server.EncodeV2Simple(e, id, server.V2OpCancel))
	e.Release()
}

// waitV2 waits for the call's final frame. A context deadline is enforced
// in-band by the server (it received the same timeout), so the client
// waits a grace past it for the typed response. Explicit cancellation
// additionally sends a cancel frame so the server stops working on the
// request; the canceled request still gets its error response. If the
// server overshoots the grace, the call is forgotten — the reader drops
// its late frames — and the connection stays usable. On nil the caller
// reads the answer off ca and recycles it; a server error recycles it
// here, and a forgotten or failed call is never recycled.
func (c *Client) waitV2(ctx context.Context, ca *v2call) error {
	select {
	case <-ca.ready:
	case <-ctx.Done():
		if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
			c.sendCancelV2(ca.id)
		}
		select {
		case <-ca.ready:
		case <-time.After(deadlineGrace):
			c.forgetV2(ca.id)
			return ctx.Err()
		}
	}
	if ca.err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return ca.err
	}
	if ca.code != "" {
		err := &ServerError{Code: ca.code, Msg: ca.msg}
		c.recycle(ca)
		return err
	}
	return nil
}

// ctxAndTimeout normalizes a nil context and derives the request timeout
// the server should enforce in-band.
func ctxAndTimeout(ctx context.Context) (context.Context, int64) {
	if ctx == nil {
		ctx = context.Background()
	}
	var ms int64
	if d, ok := ctx.Deadline(); ok {
		ms = time.Until(d).Milliseconds()
		if ms < 1 {
			ms = 1
		}
	}
	return ctx, ms
}

// roundTrip is one request and its answer: it writes the request frame,
// encoded into e under ca's id, releases e and waits for the call's final
// frame (see waitV2 for who recycles ca).
func (c *Client) roundTrip(ctx context.Context, ca *v2call, e *server.V2Enc, frame []byte) error {
	err := c.writeFramesV2(frame)
	e.Release()
	if err != nil {
		c.forgetV2(ca.id)
		return err
	}
	return c.waitV2(ctx, ca)
}

// query runs one statement and returns its completed call; keep says
// whether the caller keeps the call's rows.
func (c *Client) query(ctx context.Context, q string, keep bool) (*v2call, error) {
	ctx, ms := ctxAndTimeout(ctx)
	ca, e := c.newCallV2(keep)
	if err := c.roundTrip(ctx, ca, e, server.EncodeV2Query(e, ca.id, server.V2OpQuery, q, ms)); err != nil {
		return nil, err
	}
	return ca, nil
}

// chunkFunc encodes the chunk of a delivery's entities [lo, hi) into one
// chunk frame, with the delivery's links and texts when done.
type chunkFunc func(e *server.V2Enc, id uint32, lo, hi int, done bool) ([]byte, error)

// ingest streams a delivery of n entities as one ingest_batch request for
// the named source. With batchSize > 0 the entities go out in chunks of
// that size and the links and texts in the final chunk; with 0 the whole
// delivery is the final chunk. A chunk that cannot be encoded after the
// header went out cancels the stream, so the server releases its admission
// slot at once.
func (c *Client) ingest(ctx context.Context, name string, n, batchSize int, trace bool, chunk chunkFunc) (*IngestSummary, string, error) {
	ctx, ms := ctxAndTimeout(ctx)
	ca, e := c.newCallV2(false)
	err := c.writeFramesV2(server.EncodeV2IngestBatchHeader(e, ca.id, name, ms, trace))
	e.Release()
	last := 0
	if batchSize > 0 {
		last = n
	}
	for lo := 0; err == nil && lo < last; lo += batchSize {
		err = c.writeChunkV2(ca.id, chunk, lo, min(lo+batchSize, n), false)
	}
	if err == nil {
		err = c.writeChunkV2(ca.id, chunk, last, n, true)
	}
	if err != nil {
		c.sendCancelV2(ca.id)
		c.forgetV2(ca.id)
		return nil, "", err
	}
	if err := c.waitV2(ctx, ca); err != nil {
		return nil, "", err
	}
	c.noteCSN(ca.res.CSN)
	sum, tr := ca.res.Ingest, ca.res.Trace
	c.recycle(ca)
	return sum, tr, nil
}

// writeChunkV2 encodes and writes one chunk of an ingest stream.
func (c *Client) writeChunkV2(id uint32, chunk chunkFunc, lo, hi int, done bool) error {
	e := server.GetV2Enc()
	defer e.Release()
	frame, err := chunk(e, id, lo, hi, done)
	if err != nil {
		return err
	}
	return c.writeFramesV2(frame)
}
