package client

// Request multiplexing: one reader goroutine decodes every inbound frame
// and routes it to the waiting call by request id, so many calls can be in
// flight on one connection at once and responses may complete out of order.

import (
	"context"
	"errors"
	"sync"
	"time"

	"scdb"
	"scdb/internal/server"
)

// v2call is one in-flight request. The reader goroutine owns rows/res/
// code/msg/err until it closes ready; the caller reads them only after.
type v2call struct {
	id        uint32
	rows      [][]any
	res       *server.V2Result
	code, msg string
	err       error
	ready     chan struct{}
}

// v2state is the multiplexing machinery of a Client.
type v2state struct {
	wmu sync.Mutex // serializes frame writes

	// rb is the read loop's frame header and payload buffer, kept across
	// frames: every decoder the loop calls copies what it returns.
	rb server.V2ReadBuf

	pmu    sync.Mutex
	nextID uint32
	calls  map[uint32]*v2call
}

// readLoopV2 is the connection's single frame reader: it decodes every
// inbound frame and routes it by request id. Frames for forgotten ids
// (calls abandoned past their grace) are discarded, which is what keeps
// an abandoned call from poisoning the connection.
func (c *Client) readLoopV2() {
	for {
		f, err := c.v2.rb.Read(c.br, server.DefaultMaxFrame, true)
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
			rows, err := server.DecodeV2RowBatch(f.Payload, ca.rows)
			if err != nil {
				ca.err = err
				c.finishV2(f.ID, ca)
				continue
			}
			ca.rows = rows
		case server.V2OpResult:
			res, err := server.DecodeV2Result(f.Payload)
			if err != nil {
				ca.err = err
			} else {
				ca.res = res
			}
			c.finishV2(f.ID, ca)
		case server.V2OpError:
			code, msg, err := server.DecodeV2Error(f.Payload)
			if err != nil {
				ca.err = err
			} else {
				ca.code, ca.msg = code, msg
			}
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
	close(ca.ready)
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
		close(ca.ready)
	}
}

// newCallV2 allocates a request id, registers the call for routing and
// hands out an encoder for its request frame.
func (c *Client) newCallV2() (*v2call, *server.V2Enc) {
	ca := &v2call{ready: make(chan struct{})}
	c.v2.pmu.Lock()
	c.v2.nextID++
	ca.id = c.v2.nextID
	c.v2.calls[ca.id] = ca
	c.v2.pmu.Unlock()
	return ca, server.GetV2Enc()
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
// its late frames — and the connection stays usable.
func (c *Client) waitV2(ctx context.Context, ca *v2call) (*server.V2Result, error) {
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
			return nil, ctx.Err()
		}
	}
	if ca.err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, ca.err
	}
	if ca.code != "" {
		return nil, &ServerError{Code: ca.code, Msg: ca.msg}
	}
	return ca.res, nil
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
// frame.
func (c *Client) roundTrip(ctx context.Context, ca *v2call, e *server.V2Enc, frame []byte) (*server.V2Result, error) {
	err := c.writeFramesV2(frame)
	e.Release()
	if err != nil {
		c.forgetV2(ca.id)
		return nil, err
	}
	return c.waitV2(ctx, ca)
}

func (c *Client) queryV2(ctx context.Context, q string) (*scdb.Rows, *scdb.QueryInfo, error) {
	ctx, ms := ctxAndTimeout(ctx)
	ca, e := c.newCallV2()
	res, err := c.roundTrip(ctx, ca, e, server.EncodeV2Query(e, ca.id, server.V2OpQuery, q, ms))
	if err != nil {
		return nil, nil, err
	}
	info := res.Info
	if info == nil {
		info = &scdb.QueryInfo{}
	}
	return &scdb.Rows{Columns: res.Columns, Data: ca.rows}, info, nil
}

// ingest streams src as one ingest_batch request. With batchSize > 0 the
// entities go out in chunks of that size and the links and texts in the
// final chunk; with 0 the whole source is the final chunk. A chunk that
// cannot be encoded after the header went out cancels the stream, so the
// server releases its admission slot at once.
func (c *Client) ingest(ctx context.Context, src scdb.Source, batchSize int, trace bool) (*server.V2Result, error) {
	ctx, ms := ctxAndTimeout(ctx)
	ca, e := c.newCallV2()
	err := c.writeFramesV2(server.EncodeV2IngestBatchHeader(e, ca.id, src.Name, ms, trace))
	e.Release()
	last := server.V2Chunk{Links: src.Links, Texts: src.Texts, Done: true}
	if batchSize == 0 {
		last.Entities = src.Entities
	}
	for lo := 0; err == nil && batchSize > 0 && lo < len(src.Entities); lo += batchSize {
		err = c.writeChunkV2(ca.id, server.V2Chunk{Entities: src.Entities[lo:min(lo+batchSize, len(src.Entities))]})
	}
	if err == nil {
		err = c.writeChunkV2(ca.id, last)
	}
	if err != nil {
		c.sendCancelV2(ca.id)
		c.forgetV2(ca.id)
		return nil, err
	}
	res, err := c.waitV2(ctx, ca)
	if err != nil {
		return nil, err
	}
	c.noteCSN(res.CSN)
	return res, nil
}

// writeChunkV2 encodes and writes one chunk of an ingest stream.
func (c *Client) writeChunkV2(id uint32, chunk server.V2Chunk) error {
	e := server.GetV2Enc()
	defer e.Release()
	frame, err := server.EncodeV2IngestChunk(e, id, chunk)
	if err != nil {
		return err
	}
	return c.writeFramesV2(frame)
}
