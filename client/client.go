// Package client is the Go client for scdb-server. It speaks the server's
// one wire protocol — compact binary frames, columnar row batches, and
// request pipelining (many calls in flight on one connection, responses
// matched by request id).
//
// A Client is safe for concurrent use; concurrent calls are pipelined on
// the one connection.
//
// Results come back through the same lossless value encoding the server
// uses, so rows read over the network are identical — value for value —
// to rows read from an embedded scdb.DB.
package client

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"scdb"
	"scdb/internal/curate"
	"scdb/internal/er"
	"scdb/internal/model"
	"scdb/internal/server"
)

// ErrBusy mirrors the server's typed load-shedding error: the request was
// rejected by admission control. Retry with backoff.
var ErrBusy = server.ErrBusy

// ErrReadOnly mirrors the server's typed read-only error: the node is a
// replica and refuses writes. Route the write to the primary.
var ErrReadOnly = scdb.ErrReadOnly

// ServerError is a non-OK response from the server. errors.Is(err,
// ErrBusy) matches responses with the "busy" code.
type ServerError struct {
	Code string
	Msg  string
}

func (e *ServerError) Error() string { return fmt.Sprintf("scdb-server: %s (%s)", e.Msg, e.Code) }

// Is maps wire codes back to the typed errors a caller checks for.
func (e *ServerError) Is(target error) bool {
	switch target {
	case ErrBusy:
		return e.Code == server.CodeBusy
	case context.DeadlineExceeded:
		return e.Code == server.CodeDeadline
	case context.Canceled:
		return e.Code == server.CodeCanceled
	case ErrReadOnly:
		return e.Code == server.CodeReadOnly
	case scdb.ErrInvalidDelivery:
		return e.Code == server.CodeInvalidDelivery
	}
	return false
}

// Client is one connection to an scdb-server.
type Client struct {
	nc     net.Conn
	br     *bufio.Reader
	broken atomic.Bool

	v2 *v2state // request multiplexing state

	// lastCSN is the highest commit stamp any response on this connection
	// has carried — the session's read-your-writes high-water mark. Write
	// responses carry the commit CSN; pings carry the node's current CSN.
	lastCSN atomic.Uint64
}

// noteCSN advances the session high-water mark; stamps never move it back.
func (c *Client) noteCSN(csn uint64) {
	for {
		cur := c.lastCSN.Load()
		if csn <= cur || c.lastCSN.CompareAndSwap(cur, csn) {
			return
		}
	}
}

// LastCSN reports the highest commit stamp observed on this connection —
// what a router must see applied on a replica before reading from it.
func (c *Client) LastCSN() uint64 { return c.lastCSN.Load() }

// handshakeTimeout bounds the hello exchange; it covers a peer that
// accepts the connection and answers nothing at all.
const handshakeTimeout = 5 * time.Second

// Dial connects to an scdb-server at addr ("host:port") and exchanges
// hellos. A peer that answers the hello with anything but the server hello
// (or closes the connection) is not an scdb-server of this protocol; Dial
// reports the mismatch.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(handshakeTimeout))
	if err := server.WriteClientHello(nc); err != nil {
		nc.Close()
		return nil, err
	}
	if _, err := server.ReadServerHello(nc); err != nil {
		nc.Close()
		return nil, fmt.Errorf("scdb client: protocol mismatch: %s did not answer the v2 hello: %w", addr, err)
	}
	nc.SetDeadline(time.Time{})
	c := &Client{nc: nc, br: bufio.NewReader(nc), v2: &v2state{calls: map[uint32]*v2call{}}}
	go c.readLoopV2()
	return c, nil
}

// Close closes the connection immediately, failing any in-flight call —
// it deliberately does not wait for one to finish.
func (c *Client) Close() error {
	c.broken.Store(true)
	return c.nc.Close()
}

// deadlineGrace is how long past a context deadline the client keeps
// listening: the server enforces the same deadline in-band, and its typed
// response is the better answer. Past the grace the call is forgotten (see
// waitV2).
const deadlineGrace = 2 * time.Second

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, err := c.PingCSN()
	return err
}

// PingCSN round-trips an empty request and returns the node's current
// commit stamp: on a primary the latest allocated CSN, on a replica the
// applied watermark. A router compares it against a session's LastCSN to
// decide whether the replica is fresh enough to serve that session's reads.
func (c *Client) PingCSN() (uint64, error) {
	ca, e := c.newCallV2(false)
	if err := c.roundTrip(context.Background(), ca, e, server.EncodeV2Simple(e, ca.id, server.V2OpPing)); err != nil {
		return 0, err
	}
	csn := ca.res.CSN
	c.recycle(ca)
	return csn, nil
}

// Query executes one SCQL statement under the server's default deadline.
func (c *Client) Query(q string) (*scdb.Rows, error) {
	return c.QueryCtx(nil, q)
}

// QueryCtx executes one SCQL statement; a context deadline becomes the
// request's end-to-end deadline on the server.
func (c *Client) QueryCtx(ctx context.Context, q string) (*scdb.Rows, error) {
	rows, _, err := c.QueryInfoCtx(ctx, q)
	return rows, err
}

// QueryInfo executes one SCQL statement and reports how it was answered.
func (c *Client) QueryInfo(q string) (*scdb.Rows, *scdb.QueryInfo, error) {
	return c.QueryInfoCtx(nil, q)
}

// QueryInfoCtx is QueryInfo with a deadline. The rows decode into the
// connection's values scratch and become public values once, in
// scdb.FromRows.
func (c *Client) QueryInfoCtx(ctx context.Context, q string) (*scdb.Rows, *scdb.QueryInfo, error) {
	ca, err := c.query(ctx, q, false)
	if err != nil {
		return nil, nil, err
	}
	rows := &scdb.Rows{Columns: ca.res.Columns, Data: scdb.FromRows(nil, ca.rows)}
	info := &scdb.QueryInfo{}
	if ca.res.Info != nil {
		*info = *ca.res.Info
	}
	c.recycle(ca)
	return rows, info, nil
}

// Values is a statement's answer in engine values: its columns, its rows
// and how it was answered.
type Values struct {
	Columns []string
	Rows    [][]model.Value
	Info    scdb.QueryInfo
}

// QueryValuesCtx is QueryInfoCtx answering in engine values, each cell
// decoded once and none boxed; the rows are the caller's. The shard router
// reads its shards through it.
func (c *Client) QueryValuesCtx(ctx context.Context, q string) (Values, error) {
	ca, err := c.query(ctx, q, true)
	if err != nil {
		return Values{}, err
	}
	v := Values{Columns: ca.res.Columns, Rows: ca.rows}
	if ca.res.Info != nil {
		v.Info = *ca.res.Info
	}
	ca.rows = nil
	c.recycle(ca)
	return v, nil
}

// Ingest ships one source delivery through the server's curation pipeline
// as an ingest_batch stream of one chunk, so its entities, links and texts
// install as one delivery.
func (c *Client) Ingest(src scdb.Source) error {
	_, _, err := c.ingest(nil, src.Name, len(src.Entities), 0, false, sourceChunks(src))
	return err
}

// IngestTraced is Ingest with tracing on: the response carries the
// curation pipeline's span tree (decode, batch install with WAL fsync
// wait, relation, integration, inference) as indented JSON.
func (c *Client) IngestTraced(src scdb.Source) (string, error) {
	_, trace, err := c.ingest(nil, src.Name, len(src.Entities), 0, true, sourceChunks(src))
	return trace, err
}

// IngestSummary reports what a streamed IngestBatch installed.
type IngestSummary = server.IngestSummary

// DefaultIngestBatch is the chunk size IngestBatch uses when the caller
// passes batchSize <= 0.
const DefaultIngestBatch = 1024

// IngestBatch ships one source delivery as a chunked ingest_batch stream:
// entities go out in batchSize chunks that the server installs through its
// batch write path, and the links and texts ride in the final chunk so
// every cross-reference already has its entity installed. The whole stream
// holds one admission slot on the server and one request slot on this
// client. A context deadline bounds the stream end to end.
func (c *Client) IngestBatch(ctx context.Context, src scdb.Source, batchSize int) (*IngestSummary, error) {
	if batchSize <= 0 {
		batchSize = DefaultIngestBatch
	}
	sum, _, err := c.ingest(ctx, src.Name, len(src.Entities), batchSize, false, sourceChunks(src))
	return sum, err
}

// IngestDelivery is IngestBatch of a delivery in engine form, as the shard
// router forwards each shard its part of one: the stream's frames are
// byte for byte those IngestBatch writes for the same delivery in public
// form. d's maps are only read.
func (c *Client) IngestDelivery(ctx context.Context, d curate.Delivery, batchSize int) (*IngestSummary, error) {
	if batchSize <= 0 {
		batchSize = DefaultIngestBatch
	}
	sum, _, err := c.ingest(ctx, d.Source, len(d.Entities), batchSize, false,
		func(e *server.V2Enc, id uint32, lo, hi int, done bool) ([]byte, error) {
			part := curate.Delivery{Entities: d.Entities[lo:hi]}
			if done {
				part.Links, part.Texts = d.Links, d.Texts
			}
			return server.EncodeV2Arrivals(e, id, part, done)
		})
	return sum, err
}

// sourceChunks encodes the chunk of src's entities [lo, hi), with its
// links and texts when the chunk is the last.
func sourceChunks(src scdb.Source) chunkFunc {
	return func(e *server.V2Enc, id uint32, lo, hi int, done bool) ([]byte, error) {
		chunk := server.V2Chunk{Entities: src.Entities[lo:hi], Done: done}
		if done {
			chunk.Links, chunk.Texts = src.Links, src.Texts
		}
		return server.EncodeV2IngestChunk(e, id, chunk)
	}
}

// ERDigests pulls the node's incremental entity-resolution evidence past
// the two resolver watermarks: entity digests indexed after entsSince and
// accepted duplicate pairs recorded after matchesSince. The shard router
// calls this after routed ingests and feeds the batches to an er.Exchange
// so entities living on different shards still merge; application code
// rarely needs it.
func (c *Client) ERDigests(entsSince, matchesSince int) (er.DigestBatch, error) {
	ca, e := c.newCallV2(false)
	if err := c.roundTrip(context.Background(), ca, e, server.EncodeV2ERDigests(e, ca.id, entsSince, matchesSince)); err != nil {
		return er.DigestBatch{}, err
	}
	res := &ca.res
	defer c.recycle(ca)
	if res.Digests == nil {
		return er.DigestBatch{}, fmt.Errorf("scdb client: er_digests answered with a result of kind 0x%02x", res.Kind)
	}
	return *res.Digests, nil
}
