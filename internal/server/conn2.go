package server

// Connection handling: one reader goroutine routes frames by request id,
// every request runs in its own goroutine, and responses are written under
// a single mutex — so one connection multiplexes many in-flight requests
// (client pipelining) and responses may complete out of order.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"scdb"
	"scdb/internal/model"
	"scdb/internal/obs"
)

// v2req is the per-request bookkeeping the reader and the request
// goroutine share.
type v2req struct {
	// cancel is the request context's cancel, installed by the request
	// goroutine once the context exists (under v2conn.pmu). canceled
	// records a V2OpCancel that arrived before that moment.
	cancel   context.CancelFunc
	canceled bool
	// chunks carries the ingest_batch stream; nil for other ops.
	chunks chan v2chunk
	// acks carries a replication subscription's applied-CSN reports; nil
	// for other ops. Acks are monotone, so the router may drop one when the
	// buffer is full — a later ack supersedes it.
	acks chan uint64
	// gone closes when the request finishes, so the reader never blocks
	// forever handing a chunk to a handler that already answered.
	gone chan struct{}
}

type v2chunk struct {
	c   V2Chunk
	err error
}

// v2conn is one connection after the hello exchange.
type v2conn struct {
	s  *Server
	c  *conn
	br *bufio.Reader

	// wmu serializes response writes; dead marks the connection broken so
	// later writes fail fast instead of interleaving with a half-written
	// frame.
	wmu  sync.Mutex
	dead bool

	pmu  sync.Mutex
	reqs map[uint32]*v2req

	wg sync.WaitGroup
}

// serveV2 runs a connection after the v2 hello exchange.
func (s *Server) serveV2(c *conn, br *bufio.Reader) {
	vc := &v2conn{s: s, c: c, br: br, reqs: map[uint32]*v2req{}}
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
		f, err := ReadV2Frame(vc.br, s.cfg.MaxFrame)
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

		req := &v2req{gone: make(chan struct{})}
		if f.Op == V2OpIngestBatch {
			req.chunks = make(chan v2chunk, 4)
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
		go func(f V2Frame, req *v2req) {
			defer vc.wg.Done()
			s.handleV2Request(vc, f, req, decodeDur)
			vc.finish(f.ID, req)
		}(f, req)
	}
}

// exit ends the reader. A drain kick (read deadline fired while the
// server drains) lets in-flight requests finish and flush their
// responses; any other error means the peer is gone, so in-flight work
// is canceled rather than burned.
func (vc *v2conn) exit(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() && vc.s.isDraining() {
		vc.wg.Wait()
		return
	}
	vc.abortAll()
	vc.wg.Wait()
}

func (vc *v2conn) pending() int {
	vc.pmu.Lock()
	n := len(vc.reqs)
	vc.pmu.Unlock()
	return n
}

// finish retires a request after its final frame is written.
func (vc *v2conn) finish(id uint32, req *v2req) {
	vc.pmu.Lock()
	if vc.reqs[id] == req {
		delete(vc.reqs, id)
	}
	vc.pmu.Unlock()
	close(req.gone)
	if vc.c.addActive(-1) == 0 && vc.s.isDraining() {
		vc.c.interruptIfIdle()
	}
}

// arm installs the request context's cancel so a V2OpCancel (or
// connection teardown) can reach it; a cancel that raced ahead of the
// context is honored immediately.
func (vc *v2conn) arm(req *v2req, cancel context.CancelFunc) {
	vc.pmu.Lock()
	req.cancel = cancel
	canceled := req.canceled
	vc.pmu.Unlock()
	if canceled {
		cancel()
	}
}

// cancelRequest handles V2OpCancel: the identified request (if still in
// flight) is canceled but still delivers its error response, so
// cancellation never desynchronizes the stream. Unknown ids are ignored
// — the request may have just finished.
func (vc *v2conn) cancelRequest(id uint32) {
	vc.pmu.Lock()
	if req := vc.reqs[id]; req != nil {
		req.canceled = true
		if req.cancel != nil {
			req.cancel()
		}
	}
	vc.pmu.Unlock()
}

// abortAll cancels every in-flight request (disconnect semantics).
func (vc *v2conn) abortAll() {
	vc.pmu.Lock()
	for _, req := range vc.reqs {
		req.canceled = true
		if req.cancel != nil {
			req.cancel()
		}
	}
	vc.pmu.Unlock()
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
	c, err := DecodeV2IngestChunk(f.Payload)
	select {
	case req.chunks <- v2chunk{c: c, err: err}:
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

// write sends one complete frame under the write mutex. Each write runs
// under FrameTimeout, so a client that stops reading mid-stream cannot
// pin an executor behind a full socket buffer: the write fails, the
// connection is marked dead and closed (which also unblocks the reader),
// and streaming callbacks stop.
func (vc *v2conn) write(frame []byte) error {
	vc.wmu.Lock()
	defer vc.wmu.Unlock()
	if vc.dead {
		return net.ErrClosed
	}
	vc.c.nc.SetWriteDeadline(time.Now().Add(vc.s.cfg.FrameTimeout))
	_, err := vc.c.nc.Write(frame)
	vc.c.nc.SetWriteDeadline(time.Time{})
	if err != nil {
		vc.dead = true
		vc.c.nc.Close()
	}
	return err
}

// writev sends two frames in one vectored write — one syscall, one
// write-deadline window. The query path uses it to piggyback the final
// result frame on the last row batch, so a small query costs a single
// write.
func (vc *v2conn) writev(a, b []byte) error {
	vc.wmu.Lock()
	defer vc.wmu.Unlock()
	if vc.dead {
		return net.ErrClosed
	}
	vc.c.nc.SetWriteDeadline(time.Now().Add(vc.s.cfg.FrameTimeout))
	bufs := net.Buffers{a, b}
	_, err := bufs.WriteTo(vc.c.nc)
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

// handleV2Request executes one request end to end and feeds the
// observability surfaces: per-op latency and error counters (under the Op*
// names), reject/cancel counters, and the slow-op log.
func (s *Server) handleV2Request(vc *v2conn, f V2Frame, req *v2req, decodeDur time.Duration) {
	start := time.Now()
	op := v2OpName(f.Op)
	code, detail, errMsg := s.dispatchV2(vc, f, req, decodeDur)
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
	}
	return code, err.Error()
}

// admitV2 opens the admitted part of a request: the trace root (nil unless
// traced, and nil traces and spans no-op) with the frame decode that
// already happened attached as a completed span, the request context —
// armed so a cancel frame or connection teardown reaches it — and the
// admission wait. The caller defers cancel whatever the outcome; on a nil
// error it owns one admission slot and must call s.admit.release().
func (s *Server) admitV2(vc *v2conn, req *v2req, op string, traced bool, timeoutMS int64, decodeDur time.Duration) (context.Context, context.CancelFunc, *obs.Trace, *obs.Span, error) {
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace()
	}
	root := tr.Root("request")
	root.SetStr("op", op)
	root.ChildDur("frame_decode", decodeDur)
	ctx, cancel := s.requestCtx(timeoutMS)
	vc.arm(req, cancel)
	ctx = obs.With(ctx, tr)
	return ctx, cancel, tr, root, s.acquireSlot(ctx, root)
}

// dispatchV2 runs one decoded request frame and writes its response
// frames. It returns the error code (empty on success), a detail string
// for the slow-op log, and the error message for the op metrics.
func (s *Server) dispatchV2(vc *v2conn, f V2Frame, req *v2req, decodeDur time.Duration) (code, detail, errMsg string) {
	fail := func(code, msg string) (string, string, string) {
		vc.writeError(f.ID, code, msg)
		return code, detail, msg
	}
	// blob answers a control-plane op with its body: v as JSON, or v itself
	// when it is already bytes (the metrics text).
	blob := func(v any) (string, string, string) {
		body, ok := v.([]byte)
		if !ok {
			var err error
			if body, err = json.Marshal(v); err != nil {
				return fail(CodeQuery, err.Error())
			}
		}
		e := GetV2Enc()
		vc.write(EncodeV2BlobResult(e, f.ID, f.Op, body))
		e.Release()
		return "", "", ""
	}

	// Control-plane ops answer before admission: they must stay responsive
	// while the data plane is saturated.
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
	case V2OpStats:
		st := s.Stats()
		return blob(&st)
	case V2OpMetrics:
		return blob([]byte(s.MetricsDump()))
	case V2OpSlowLog:
		return blob(s.slowLogReply())
	case V2OpERDigests:
		if s.node == nil {
			return fail(CodeBadRequest, "backend has no local resolver to export ER digests from")
		}
		entsSince, matchesSince, err := DecodeV2ERDigests(f.Payload)
		if err != nil {
			return fail(CodeBadRequest, err.Error())
		}
		batch := s.node.ERDigests(entsSince, matchesSince)
		e := GetV2Enc()
		vc.write(EncodeV2DigestsResult(e, f.ID, &batch))
		e.Release()
		return "", "", ""
	case V2OpQuery, V2OpIngestBatch:
		// Fall through to the admitted path below.
	default:
		return fail(CodeBadRequest, fmt.Sprintf("unknown op 0x%02x", f.Op))
	}

	switch f.Op {
	case V2OpQuery:
		q, timeoutMS, err := DecodeV2Query(f.Payload)
		if err != nil {
			return fail(CodeBadRequest, err.Error())
		}
		detail = q
		ctx, cancel, _, _, err := s.admitV2(vc, req, OpQuery, isTraceStmt(q), timeoutMS, decodeDur)
		defer cancel()
		if err != nil {
			c, msg := errorCode(err)
			return fail(c, msg)
		}
		defer s.admit.release()

		// Streaming query: row batches are encoded straight off the
		// executor and written as they materialize, holding back one frame
		// so the final V2OpResult (column names + query info) coalesces
		// with the last batch into a single write.
		var writeErr error
		var pend []byte
		var pendEnc *V2Enc
		defer func() {
			if pendEnc != nil {
				pendEnc.Release()
			}
		}()
		cols, info, err := s.cfg.DB.QueryBatchesCtx(ctx, q, func(_ []string, batch [][]model.Value) bool {
			e := GetV2Enc()
			frame := EncodeV2RowBatch(e, f.ID, batch)
			if pendEnc != nil {
				werr := vc.write(pend)
				pendEnc.Release()
				pendEnc = nil
				if werr != nil {
					writeErr = werr
					e.Release()
					return false
				}
			}
			pend, pendEnc = frame, e
			return true
		})
		if writeErr != nil {
			// The connection died mid-stream; there is nobody to answer.
			return CodeCanceled, detail, "client stopped reading mid-stream"
		}
		if err != nil {
			// The held-back batch is dropped: the client discards any rows
			// it already received once the error frame lands.
			c, msg := errorCode(err)
			return fail(c, msg)
		}
		e := GetV2Enc()
		res := EncodeV2QueryResult(e, f.ID, cols, info)
		var werr error
		if pendEnc != nil {
			werr = vc.writev(pend, res)
			pendEnc.Release()
			pendEnc = nil
		} else {
			werr = vc.write(res)
		}
		e.Release()
		if werr != nil {
			return CodeCanceled, detail, "client gone before result"
		}
		return "", detail, ""

	case V2OpIngestBatch:
		name, timeoutMS, trace, err := DecodeV2IngestBatchHeader(f.Payload)
		if err != nil {
			return fail(CodeBadRequest, err.Error())
		}
		detail = "source:" + name
		ctx, cancel, tr, root, err := s.admitV2(vc, req, OpIngestBatch, trace, timeoutMS, decodeDur)
		defer cancel()
		if err != nil {
			c, msg := errorCode(err)
			return fail(c, msg)
		}
		defer s.admit.release()
		if name == "" {
			return fail(CodeBadRequest, "ingest_batch without source name")
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
				return fail(c, emsg)
			}
			if msg.err != nil {
				return fail(CodeBadRequest, msg.err.Error())
			}
			chunk := msg.c
			// A stream that ends having installed nothing still delivers
			// once: an empty delivery registers the source and creates its
			// table, as an embedded Ingest of the same source does.
			if len(chunk.Entities) > 0 || len(chunk.Links) > 0 || len(chunk.Texts) > 0 || chunk.Done && sum.Batches == 0 {
				src := scdb.Source{
					Name:     name,
					Entities: chunk.Entities,
					Links:    chunk.Links,
					Texts:    chunk.Texts,
				}
				bStart := time.Now()
				if err := s.cfg.DB.IngestCtx(ctx, src); err != nil {
					c, msg := errorCode(err)
					return fail(c, msg)
				}
				s.metrics.observeIngest(len(src.Entities), time.Since(bStart))
				sum.Batches++
				sum.Rows += len(src.Entities)
			}
			if chunk.Done {
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
	return fail(CodeBadRequest, "unreachable")
}
