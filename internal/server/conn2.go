package server

// Connection handling: one reader goroutine routes frames by request id,
// every request runs in its own goroutine, and responses are written under
// a single mutex — so one connection multiplexes many in-flight requests
// (client pipelining) and responses may complete out of order.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scdb"
	"scdb/internal/curate"
	"scdb/internal/model"
	"scdb/internal/obs"
)

// v2req is one request, from its opening frame to its last response
// frame, and it is the request's context.Context. The reader makes it
// before the request's goroutine starts, so a cancel frame or a disconnect
// reaches it at once. It is not pooled: the engine may hand the context to
// stage workers, and a late reader must never see another request's state.
type v2req struct {
	vc        *v2conn
	f         V2Frame
	decodeDur time.Duration

	// deadline is the clamped timeout_ms (or Config.DefaultTimeout), set
	// under vc.pmu before the request is handed on as a context; from then
	// on the connection's deadline sweep watches it.
	deadline time.Time
	// end is 0 while the request lives, then reqCanceled or reqExpired for
	// good. It changes only under vc.pmu, where done is closed with it.
	end atomic.Uint32
	// done is made by the first Done call (under vc.pmu).
	done chan struct{}

	// chunks carries the ingest_batch stream; nil for other ops.
	chunks chan v2chunk
	// acks carries a replication subscription's applied-CSN reports; nil
	// for other ops. Acks are monotone, so the router may drop one when the
	// buffer is full — a later ack supersedes it.
	acks chan uint64
	// gone closes when an ingest stream finishes, so the reader never
	// blocks forever handing a chunk to a handler that already answered;
	// nil for other ops.
	gone chan struct{}

	// A streamed query's held-back batch frame (see EmitBatch), and a
	// failed write, which stops the stream.
	held *V2Enc
	werr error
}

const (
	reqCanceled = 1 + iota
	reqExpired
)

// Deadline is the request's own; the router forwards it to its shards.
func (r *v2req) Deadline() (time.Time, bool) { return r.deadline, !r.deadline.IsZero() }

// Done makes its channel on the first call: a request nobody waits on
// never has one.
func (r *v2req) Done() <-chan struct{} {
	r.vc.pmu.Lock()
	defer r.vc.pmu.Unlock()
	if r.done == nil {
		r.done = make(chan struct{})
		if r.end.Load() != 0 {
			close(r.done)
		}
	}
	return r.done
}

// Err is one atomic load: the executor asks before every morsel, and the
// deadline sweep, not a clock read here, ends a request past its deadline.
func (r *v2req) Err() error {
	switch r.end.Load() {
	case 0:
		return nil
	case reqExpired:
		return context.DeadlineExceeded
	}
	return context.Canceled
}

// Value answers no key: obs.With wraps a traced request.
func (r *v2req) Value(any) any { return nil }

// endLocked ends a live request and closes its Done channel. Caller holds
// vc.pmu.
func (r *v2req) endLocked(state uint32) {
	if r.end.CompareAndSwap(0, state) && r.done != nil {
		close(r.done)
	}
}

type v2chunk struct {
	d    curate.Delivery
	done bool
	err  error
}

// v2conn is one connection after the hello exchange.
type v2conn struct {
	s  *Server
	c  *conn
	br *bufio.Reader
	// rb holds the frame header the reader parses. Payloads are not kept:
	// each is handed to its request's goroutine.
	rb V2ReadBuf

	// wmu serializes response writes; dead marks the connection broken so
	// later writes fail fast instead of interleaving with a half-written
	// frame.
	wmu  sync.Mutex
	dead bool

	// pmu guards reqs, their deadline, end and done, and the deadline
	// sweep, which fires at sweepAt: the earliest deadline of a live request.
	pmu     sync.Mutex
	reqs    map[uint32]*v2req
	sweep   *time.Timer
	sweepAt time.Time

	wg sync.WaitGroup
}

// serveV2 runs a connection after the v2 hello exchange.
func (s *Server) serveV2(c *conn, br *bufio.Reader) {
	vc := &v2conn{s: s, c: c, br: br, reqs: map[uint32]*v2req{}}
	s.mu.Lock()
	c.vc = vc
	s.mu.Unlock()
	vc.run()
}

func (vc *v2conn) run() {
	s, c := vc.s, vc.c
	for {
		// Idle wait: block until the next frame's first byte. Shutdown
		// interrupts this read via interruptIfIdle once the connection has
		// no in-flight requests.
		if _, err := vc.br.Peek(1); err != nil {
			vc.exit(err)
			return
		}
		// Slow-loris guard: a started frame must arrive promptly.
		c.nc.SetReadDeadline(time.Now().Add(s.cfg.FrameTimeout))
		decodeStart := time.Now()
		f, err := vc.rb.Read(vc.br, s.cfg.MaxFrame, false)
		decodeDur := time.Since(decodeStart)
		c.nc.SetReadDeadline(time.Time{})
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				// The length was rejected before reading the payload; say
				// why, then drop the connection (the unread payload makes
				// the stream unframeable).
				vc.writeError(f.ID, CodeBadRequest, err.Error())
			}
			vc.exit(err)
			return
		}

		switch f.Op {
		case V2OpIngestChunk:
			// Chunks are stream continuations, not requests: route to the
			// owning stream, or discard if it already finished (chunk
			// frames are self-delimiting, so dropping them never
			// desynchronizes the connection).
			vc.routeChunk(f)
			continue
		case V2OpCancel:
			vc.cancelRequest(f.ID)
			continue
		case V2OpReplAck:
			// Acks are stream continuations, like chunks: route to the
			// owning subscription, or discard.
			vc.routeAck(f)
			continue
		}

		if s.isDraining() {
			vc.writeError(f.ID, CodeShutdown, "server draining")
			s.metrics.cancel()
			continue
		}
		if s.cfg.MaxPipeline > 0 && vc.pending() >= s.cfg.MaxPipeline {
			vc.writeError(f.ID, CodeBusy, "connection pipeline limit reached")
			s.metrics.reject()
			continue
		}

		req := &v2req{vc: vc, f: f, decodeDur: decodeDur}
		if f.Op == V2OpIngestBatch {
			req.chunks = make(chan v2chunk, 4)
			req.gone = make(chan struct{})
		}
		if f.Op == V2OpReplSubscribe {
			req.acks = make(chan uint64, 16)
		}
		vc.pmu.Lock()
		if _, dup := vc.reqs[f.ID]; dup {
			vc.pmu.Unlock()
			vc.writeError(f.ID, CodeBadRequest, fmt.Sprintf("request id %d already in flight", f.ID))
			continue
		}
		vc.reqs[f.ID] = req
		vc.pmu.Unlock()
		c.addActive(1)
		vc.wg.Add(1)
		go req.serve()
	}
}

// serve executes one request end to end on its own goroutine, feeds the
// observability surfaces: per-op latency and error counters (under the Op*
// names), reject/cancel counters, and the slow-op log, and retires it.
func (r *v2req) serve() {
	vc, s := r.vc, r.vc.s
	defer vc.wg.Done()
	start := time.Now()
	op := v2OpName(r.f.Op)
	code, detail, errMsg := s.dispatchV2(r)
	d := time.Since(start)
	s.metrics.observe(op, d, code != "")
	switch code {
	case CodeBusy:
		s.metrics.reject()
	case CodeCanceled, CodeDeadline, CodeShutdown:
		s.metrics.cancel()
	}
	var opErr error
	if errMsg != "" {
		opErr = errors.New(errMsg)
	}
	s.slow.Observe(op, detail, start, d, opErr)
	vc.finish(r)
}

// exit ends the reader. A drain kick (read deadline fired while the
// server drains) lets in-flight requests finish and flush their
// responses; any other error means the peer is gone, so in-flight work
// is canceled rather than burned.
func (vc *v2conn) exit(err error) {
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() || !vc.s.isDraining() {
		vc.abortAll()
	}
	vc.wg.Wait()
	vc.pmu.Lock()
	if vc.sweep != nil {
		vc.sweep.Stop()
	}
	vc.pmu.Unlock()
}

func (vc *v2conn) pending() int {
	vc.pmu.Lock()
	n := len(vc.reqs)
	vc.pmu.Unlock()
	return n
}

// finish retires a request after its final frame is written. It ends
// canceled, as a returned handler's context does.
func (vc *v2conn) finish(req *v2req) {
	vc.pmu.Lock()
	if vc.reqs[req.f.ID] == req {
		delete(vc.reqs, req.f.ID)
	}
	req.endLocked(reqCanceled)
	vc.pmu.Unlock()
	if req.gone != nil {
		close(req.gone)
	}
	if vc.c.addActive(-1) == 0 && vc.s.isDraining() {
		vc.c.interruptIfIdle()
	}
}

// cancelRequest handles V2OpCancel: the identified request (if still in
// flight) is canceled but still delivers its error response, so
// cancellation never desynchronizes the stream. Unknown ids are ignored
// — the request may have just finished.
func (vc *v2conn) cancelRequest(id uint32) {
	vc.pmu.Lock()
	if req := vc.reqs[id]; req != nil {
		req.endLocked(reqCanceled)
	}
	vc.pmu.Unlock()
}

// abortAll cancels every in-flight request (disconnect and forced shutdown).
func (vc *v2conn) abortAll() {
	vc.pmu.Lock()
	for _, req := range vc.reqs {
		req.endLocked(reqCanceled)
	}
	vc.pmu.Unlock()
}

// watchLocked arms the deadline sweep for deadline unless it fires sooner.
// Caller holds pmu.
func (vc *v2conn) watchLocked(deadline time.Time) {
	if !vc.sweepAt.IsZero() && !deadline.Before(vc.sweepAt) {
		return
	}
	vc.sweepAt = deadline
	if vc.sweep == nil {
		vc.sweep = time.AfterFunc(time.Until(deadline), vc.sweepDeadlines)
	} else {
		vc.sweep.Reset(time.Until(deadline))
	}
}

// sweepDeadlines is the connection's one deadline timer: it ends every
// watched request past its deadline and re-arms for the earliest left.
func (vc *v2conn) sweepDeadlines() {
	vc.pmu.Lock()
	defer vc.pmu.Unlock()
	now := time.Now()
	vc.sweepAt = time.Time{}
	for _, r := range vc.reqs {
		switch {
		case r.deadline.IsZero() || r.end.Load() != 0:
		case !now.Before(r.deadline):
			r.endLocked(reqExpired)
		default:
			vc.watchLocked(r.deadline)
		}
	}
}

// routeChunk hands an ingest chunk to its stream's handler. Chunks for
// unknown or finished streams are discarded.
func (vc *v2conn) routeChunk(f V2Frame) {
	vc.pmu.Lock()
	req := vc.reqs[f.ID]
	vc.pmu.Unlock()
	if req == nil || req.chunks == nil {
		return
	}
	d, done, err := DecodeV2Arrivals(f.Payload)
	select {
	case req.chunks <- v2chunk{d: d, done: done, err: err}:
	case <-req.gone:
	}
}

// routeAck hands a replication ack to its subscription's handler. Acks
// for unknown or finished subscriptions are discarded, and a full buffer
// drops the ack rather than blocking the reader (acks are monotone).
func (vc *v2conn) routeAck(f V2Frame) {
	vc.pmu.Lock()
	req := vc.reqs[f.ID]
	vc.pmu.Unlock()
	if req == nil || req.acks == nil {
		return
	}
	csn, err := DecodeV2ReplAck(f.Payload)
	if err != nil {
		return
	}
	select {
	case req.acks <- csn:
	default:
	}
}

// write sends complete frames in one Write under the write mutex: one
// frame, or a query's last row batch with its result frame appended in the
// same encoder buffer, so a small query costs one syscall and one
// write-deadline window. Each write runs under FrameTimeout, so a client
// that stops reading mid-stream cannot pin an executor behind a full
// socket buffer: the write fails, the connection is marked dead and closed
// (which also unblocks the reader), and streaming callbacks stop.
func (vc *v2conn) write(frames []byte) error {
	vc.wmu.Lock()
	defer vc.wmu.Unlock()
	if vc.dead {
		return net.ErrClosed
	}
	vc.c.nc.SetWriteDeadline(time.Now().Add(vc.s.cfg.FrameTimeout))
	_, err := vc.c.nc.Write(frames)
	vc.c.nc.SetWriteDeadline(time.Time{})
	if err != nil {
		vc.dead = true
		vc.c.nc.Close()
	}
	return err
}

func (vc *v2conn) writeError(id uint32, code, msg string) error {
	e := GetV2Enc()
	defer e.Release()
	return vc.write(EncodeV2Error(e, id, code, msg))
}

// EmitBatch makes a streamed query's request its own query.BatchSink: it
// encodes the batch, writes the frame held back so far and holds this one
// back in its place, so the final V2OpResult coalesces with the last batch
// into a single write.
func (r *v2req) EmitBatch(_ []string, batch [][]model.Value) bool {
	e := GetV2Enc()
	EncodeV2RowBatch(e, r.f.ID, batch)
	if r.held != nil {
		err := r.vc.write(r.held.out)
		r.held.Release()
		r.held = nil
		if err != nil {
			r.werr = err
			e.Release()
			return false
		}
	}
	r.held = e
	return true
}

// errorCode maps an execution error onto its wire code.
func errorCode(err error) (code, msg string) {
	code = CodeQuery
	switch {
	case errors.Is(err, ErrBusy):
		code = CodeBusy
	case errors.Is(err, context.DeadlineExceeded):
		code = CodeDeadline
	case errors.Is(err, context.Canceled):
		code = CodeCanceled
	case errors.Is(err, scdb.ErrReadOnly):
		code = CodeReadOnly
	case errors.Is(err, scdb.ErrInvalidDelivery):
		code = CodeInvalidDelivery
	}
	return code, err.Error()
}

// admitV2 opens the admitted part of a request: the trace root (nil unless
// traced, and nil traces and spans no-op) with the frame decode that
// already happened attached as a completed span, the request's deadline,
// and the admission wait. The context it returns is req itself, wrapped by
// obs.With only when traced. On a nil error the caller owns one admission
// slot and must call s.admit.release().
func (s *Server) admitV2(req *v2req, op string, traced bool, timeoutMS int64) (context.Context, *obs.Trace, *obs.Span, error) {
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace()
	}
	root := tr.Root("request")
	root.SetStr("op", op)
	root.ChildDur("frame_decode", req.decodeDur)
	req.vc.pmu.Lock()
	req.deadline = time.Now().Add(s.requestTimeout(timeoutMS))
	req.vc.watchLocked(req.deadline)
	req.vc.pmu.Unlock()
	ctx := obs.With(req, tr)
	return ctx, tr, root, s.acquireSlot(ctx, root)
}

// dispatchV2 runs one decoded request frame and writes its response
// frames. It returns the error code (empty on success), a detail string
// for the slow-op log, and the error message for the op metrics. A query
// runs here; an ingest stream and the control-plane ops run in methods of
// their own, so a query's stack frame holds a query's locals only.
func (s *Server) dispatchV2(req *v2req) (code, detail, errMsg string) {
	switch req.f.Op {
	case V2OpQuery:
	case V2OpIngestBatch:
		return s.ingestV2(req)
	default:
		return s.controlV2(req)
	}
	vc, f := req.vc, req.f
	q, timeoutMS, err := DecodeV2Query(f.Payload)
	if err != nil {
		return req.fail(CodeBadRequest, "", err.Error())
	}
	detail = q
	ctx, _, _, err := s.admitV2(req, OpQuery, isTraceStmt(q), timeoutMS)
	if err != nil {
		c, msg := errorCode(err)
		return req.fail(c, detail, msg)
	}
	defer s.admit.release()

	cols, info, err := s.cfg.DB.QueryBatchesCtx(ctx, q, req)
	if req.werr != nil {
		// The connection died mid-stream; there is nobody to answer.
		return CodeCanceled, detail, "client stopped reading mid-stream"
	}
	// The final frame goes into the held-back batch's encoder, after the
	// batch, so a small query costs a single write.
	e := req.held
	if e == nil {
		e = GetV2Enc()
	}
	defer e.Release()
	if err != nil {
		// The held-back batch is dropped: the client discards any rows
		// it already received once the error frame lands.
		c, msg := errorCode(err)
		return req.fail(c, detail, msg)
	}
	if vc.write(EncodeV2QueryResult(e, f.ID, cols, &info)) != nil {
		return CodeCanceled, detail, "client gone before result"
	}
	return "", detail, ""
}

// fail answers the request with an error frame and returns what
// dispatchV2 returns for it.
func (r *v2req) fail(code, detail, msg string) (string, string, string) {
	r.vc.writeError(r.f.ID, code, msg)
	return code, detail, msg
}

// controlV2 runs a control-plane op. Control-plane ops answer before
// admission: they must stay responsive while the data plane is saturated.
func (s *Server) controlV2(req *v2req) (code, detail, errMsg string) {
	vc, f := req.vc, req.f
	switch f.Op {
	case V2OpPing:
		e := GetV2Enc()
		vc.write(EncodeV2PingResult(e, f.ID, s.cfg.DB.CSN()))
		e.Release()
		return "", "", ""
	case V2OpReplSubscribe:
		// Replication subscriptions live outside admission control (they
		// tail the log; they never hold an executor) and outlast every
		// other request on the connection.
		return s.handleReplSubscribe(vc, f, req)
	case V2OpERDigests:
		if s.node == nil {
			return req.fail(CodeBadRequest, "", "backend has no local resolver to export ER digests from")
		}
		entsSince, matchesSince, err := DecodeV2ERDigests(f.Payload)
		if err != nil {
			return req.fail(CodeBadRequest, "", err.Error())
		}
		batch := s.node.ERDigests(entsSince, matchesSince)
		e := GetV2Enc()
		vc.write(EncodeV2DigestsResult(e, f.ID, &batch))
		e.Release()
		return "", "", ""
	}
	return req.fail(CodeBadRequest, "", fmt.Sprintf("unknown op 0x%02x", f.Op))
}

// ingestV2 runs an ingest stream: the header frame, then its chunks as the
// reader routes them, each curated as it arrives.
func (s *Server) ingestV2(req *v2req) (code, detail, errMsg string) {
	vc, f := req.vc, req.f
	name, timeoutMS, trace, err := DecodeV2IngestBatchHeader(f.Payload)
	if err != nil {
		return req.fail(CodeBadRequest, "", err.Error())
	}
	detail = "source:" + name
	ctx, tr, root, err := s.admitV2(req, OpIngestBatch, trace, timeoutMS)
	if err != nil {
		c, msg := errorCode(err)
		return req.fail(c, detail, msg)
	}
	defer s.admit.release()
	if name == "" {
		return req.fail(CodeBadRequest, detail, "ingest_batch without source name")
	}
	// An early failure needs no drain loop: the reader owns the socket
	// and discards chunks addressed to a finished request.
	var sum IngestSummary
	start := time.Now()
	for {
		var msg v2chunk
		select {
		case msg = <-req.chunks:
		case <-ctx.Done():
			c, emsg := errorCode(ctx.Err())
			return req.fail(c, detail, emsg)
		}
		if msg.err != nil {
			return req.fail(CodeBadRequest, detail, msg.err.Error())
		}
		d := msg.d
		// A stream that ends having installed nothing still delivers
		// once: an empty delivery registers the source and creates its
		// table, as an embedded Ingest of the same source does.
		if len(d.Entities) > 0 || len(d.Links) > 0 || len(d.Texts) > 0 || msg.done && sum.Batches == 0 {
			d.Source = name
			bStart := time.Now()
			if err := s.cfg.DB.IngestDelivery(ctx, d); err != nil {
				c, msg := errorCode(err)
				return req.fail(c, detail, msg)
			}
			s.metrics.observeIngest(len(d.Entities), time.Since(bStart))
			sum.Batches++
			sum.Rows += len(d.Entities)
		}
		if msg.done {
			break
		}
	}
	elapsed := time.Since(start)
	sum.ElapsedUS = elapsed.Microseconds()
	if sec := elapsed.Seconds(); sec > 0 {
		sum.RowsPerSec = float64(sum.Rows) / sec
	}
	root.End()
	sum.CSN = s.cfg.DB.CSN()
	e := GetV2Enc()
	vc.write(EncodeV2IngestResult(e, f.ID, sum, traceJSON(tr), sum.CSN))
	e.Release()
	return "", detail, ""
}
