package server_test

// A request is its own context: its deadline is read by Err, its Done
// channel is closed by the connection's one deadline sweep, a cancel frame
// reaches it before its goroutine runs, and its statement aliases its
// frame. These tests speak raw frames where a client's own deadline and
// grace would hide what the server answered. All of them run under -race
// in CI.

import (
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"scdb"
	"scdb/internal/server"
)

// sendFrame encodes one request frame and writes it to nc.
func sendFrame(t *testing.T, nc net.Conn, encode func(e *server.V2Enc) []byte) {
	t.Helper()
	e := server.GetV2Enc()
	defer e.Release()
	if _, err := nc.Write(encode(e)); err != nil {
		t.Fatal(err)
	}
}

// finalFrame reads nc until a request's final frame (a result or an
// error) arrives, skipping row batches, within d.
func finalFrame(t *testing.T, nc net.Conn, d time.Duration) server.V2Frame {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(d))
	defer nc.SetReadDeadline(time.Time{})
	for {
		f, err := server.ReadV2Frame(nc, server.DefaultMaxFrame)
		if err != nil {
			t.Fatalf("no final frame within %s: %v", d, err)
		}
		if f.Op != server.V2OpRowBatch {
			return f
		}
	}
}

// errorCode is the wire code of an error frame, or "" for a result.
func errorCode(t *testing.T, f server.V2Frame) string {
	t.Helper()
	if f.Op == server.V2OpResult {
		return ""
	}
	code, _, err := server.DecodeV2Error(f.Payload)
	if f.Op != server.V2OpError || err != nil {
		t.Fatalf("frame op 0x%02x for id %d (%v), want a result or an error", f.Op, f.ID, err)
	}
	return code
}

// TestCancelRacesStart: a cancel frame written right behind its query on
// one connection reaches the request whether it lands before the request's
// goroutine runs, while it executes or after it answered. Of 1,000 such
// pairs every query answers exactly once, rows or canceled, none hangs,
// and no admission slot leaks.
func TestCancelRacesStart(t *testing.T) {
	const n = 1000
	db := openDB(t, scdb.Options{})
	if err := db.Ingest(streamSource(50)); err != nil {
		t.Fatal(err)
	}
	// No per-connection or admission bound sheds a query here: the answer
	// is rows or canceled, never busy.
	srv, addr := startServer(t, db, func(c *server.Config) {
		c.MaxPipeline = -1
		c.MaxInFlight = 2 * n
		c.MaxQueue = 2 * n
	})
	nc := hello(t, addr)
	go func() {
		for id := uint32(1); id <= n; id++ {
			// Frames encoded one after another into one encoder follow each
			// other in its buffer: an odd query and its cancel go in one
			// write, an even one's cancel in a write of its own a moment
			// later, so cancels land before, during and after execution.
			e := server.GetV2Enc()
			q := server.EncodeV2Query(e, id, server.V2OpQuery, "SELECT COUNT(*) AS n FROM feed", 0)
			if id%2 == 0 {
				_, err := nc.Write(q)
				e.Release()
				if err != nil {
					return
				}
				time.Sleep(time.Duration(id%8) * 25 * time.Microsecond)
				e = server.GetV2Enc()
			}
			_, err := nc.Write(server.EncodeV2Simple(e, id, server.V2OpCancel))
			e.Release()
			if err != nil {
				return
			}
		}
	}()
	seen := make([]bool, n+1)
	rows, canceled := 0, 0
	for range n {
		f := finalFrame(t, nc, 20*time.Second)
		if f.ID < 1 || f.ID > n || seen[f.ID] {
			t.Fatalf("final frame for id %d: unknown or answered twice", f.ID)
		}
		seen[f.ID] = true
		switch code := errorCode(t, f); code {
		case "":
			rows++
		case server.CodeCanceled:
			canceled++
		default:
			t.Fatalf("query %d answered %q, want rows or %q", f.ID, code, server.CodeCanceled)
		}
	}
	t.Logf("%d answered rows, %d canceled", rows, canceled)
	if canceled == 0 {
		t.Error("no cancel reached its query")
	}
	waitUntil(t, 4*time.Second, func() bool { return srv.Stats().Server.InFlight == 0 },
		"admission.in_flight to return to 0")
}

// TestDeadlineAnswersInBand: a request past its deadline is answered by the
// server itself, long before the client's grace would give up on it,
// whether the request executes (the executor reads Err) or waits on Done:
// an ingest stream whose chunks never come, and a query queued behind a
// full admitter with no queue timeout of its own.
func TestDeadlineAnswersInBand(t *testing.T) {
	const timeout = 200 * time.Millisecond
	within := timeout + time.Second
	db := openBig(t, 4000)
	_, addr := startServer(t, db, func(c *server.Config) {
		c.MaxInFlight = 1
		c.QueueTimeout = -1 // only the request's deadline bounds the queue
	})

	t.Run("executing", func(t *testing.T) {
		nc := hello(t, addr)
		start := time.Now()
		sendFrame(t, nc, func(e *server.V2Enc) []byte {
			return server.EncodeV2Query(e, 1, server.V2OpQuery, slowJoin, timeout.Milliseconds())
		})
		if code := errorCode(t, finalFrame(t, nc, 10*time.Second)); code != server.CodeDeadline {
			t.Fatalf("slow join past its deadline answered %q, want %q", code, server.CodeDeadline)
		}
		if d := time.Since(start); d > within {
			t.Errorf("the deadline was answered after %s, want within %s", d, within)
		}
	})

	t.Run("ingest stream without chunks", func(t *testing.T) {
		nc := hello(t, addr)
		start := time.Now()
		sendFrame(t, nc, func(e *server.V2Enc) []byte {
			return server.EncodeV2IngestBatchHeader(e, 1, "feed", timeout.Milliseconds(), false)
		})
		if code := errorCode(t, finalFrame(t, nc, 10*time.Second)); code != server.CodeDeadline {
			t.Fatalf("a stream whose chunks never came answered %q, want %q", code, server.CodeDeadline)
		}
		if d := time.Since(start); d < timeout || d > within {
			t.Errorf("the stream was answered after %s, want at its %s deadline", d, timeout)
		}
	})

	t.Run("queued", func(t *testing.T) {
		nc := hello(t, addr)
		// The slow join holds the one slot for seconds.
		sendFrame(t, nc, func(e *server.V2Enc) []byte {
			return server.EncodeV2Query(e, 1, server.V2OpQuery, slowJoin, 0)
		})
		time.Sleep(50 * time.Millisecond)
		start := time.Now()
		sendFrame(t, nc, func(e *server.V2Enc) []byte {
			return server.EncodeV2Query(e, 2, server.V2OpQuery, "SELECT COUNT(*) AS n FROM big", timeout.Milliseconds())
		})
		f := finalFrame(t, nc, 10*time.Second)
		if code := errorCode(t, f); f.ID != 2 || code != server.CodeDeadline {
			t.Fatalf("id %d answered %q first, want the queued query 2 answered %q", f.ID, code, server.CodeDeadline)
		}
		if d := time.Since(start); d < timeout || d > within {
			t.Errorf("the queued query was answered after %s, want at its %s deadline", d, timeout)
		}
		sendFrame(t, nc, func(e *server.V2Enc) []byte { return server.EncodeV2Simple(e, 1, server.V2OpCancel) })
		if code := errorCode(t, finalFrame(t, nc, 10*time.Second)); code != server.CodeCanceled {
			t.Fatalf("the canceled slow join answered %q, want %q", code, server.CodeCanceled)
		}
	})
}

// TestQueuedCancelIsCanceled: a query queued behind a full admitter and then
// canceled by its client answers canceled and counts as canceled, not as one
// admission shed.
func TestQueuedCancelIsCanceled(t *testing.T) {
	db := openBig(t, 4000)
	srv, addr := startServer(t, db, func(c *server.Config) {
		c.MaxInFlight = 1
		c.QueueTimeout = -1 // only the request's own context bounds the queue
	})
	nc := hello(t, addr)
	sendFrame(t, nc, func(e *server.V2Enc) []byte {
		return server.EncodeV2Query(e, 1, server.V2OpQuery, slowJoin, 0)
	})
	waitUntil(t, 4*time.Second, func() bool { return srv.Stats().Server.InFlight == 1 }, "the slow join to hold the slot")
	sendFrame(t, nc, func(e *server.V2Enc) []byte {
		return server.EncodeV2Query(e, 2, server.V2OpQuery, "SELECT COUNT(*) AS n FROM big", 0)
	})
	waitUntil(t, 4*time.Second, func() bool { return srv.Stats().Server.Queued == 1 }, "query 2 to queue")
	before := srv.Stats().Server
	sendFrame(t, nc, func(e *server.V2Enc) []byte { return server.EncodeV2Simple(e, 2, server.V2OpCancel) })
	f := finalFrame(t, nc, 10*time.Second)
	if code := errorCode(t, f); f.ID != 2 || code != server.CodeCanceled {
		t.Fatalf("id %d answered %q first, want the queued query 2 %q", f.ID, code, server.CodeCanceled)
	}
	waitUntil(t, 4*time.Second, func() bool { return srv.Stats().Server.Canceled == before.Canceled+1 }, "server.canceled to rise by one")
	if after := srv.Stats().Server; after.Rejected != before.Rejected {
		t.Errorf("server.rejected moved from %d to %d on a canceled query", before.Rejected, after.Rejected)
	}
	sendFrame(t, nc, func(e *server.V2Enc) []byte { return server.EncodeV2Simple(e, 1, server.V2OpCancel) })
	if code := errorCode(t, finalFrame(t, nc, 10*time.Second)); code != server.CodeCanceled {
		t.Fatalf("the canceled slow join answered %q, want %q", code, server.CodeCanceled)
	}
}

// TestStatementOutlivesLaterFrames: the statement a query's frame carries
// is read in place, not copied, so it must stay as sent after later frames
// on the same connection: the slow log keeps every statement it saw.
func TestStatementOutlivesLaterFrames(t *testing.T) {
	db := openDB(t, scdb.Options{})
	if err := db.Ingest(streamSource(20)); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, db, func(c *server.Config) { c.SlowOpThreshold = time.Nanosecond })
	c := dial(t, addr)
	var sent []string
	for i := range 8 {
		q := fmt.Sprintf("SELECT name FROM feed WHERE slot = %d", 10+i)
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, q)
	}
	// A request reaches the slow log after its answer is written, so the
	// last query's entry may trail its answer: read until every query but
	// the reads themselves is logged.
	const read = "SELECT detail FROM sys.slowlog WHERE op = 'query'"
	var logged []string
	for deadline := time.Now().Add(2 * time.Second); len(logged) < len(sent) && time.Now().Before(deadline); {
		rows, err := c.Query(read)
		if err != nil {
			t.Fatal(err)
		}
		logged = logged[:0]
		for _, r := range rows.Data {
			if d := r[0].(string); d != read {
				logged = append(logged, d)
			}
		}
	}
	for _, q := range sent {
		if !slices.Contains(logged, q) {
			t.Errorf("the slow log lost %q; it holds %q", q, logged)
		}
	}
}
