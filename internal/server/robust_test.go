package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"scdb/client"
	"scdb/internal/server"
)

// hello opens a raw connection and completes the hello exchange, for tests
// that then misbehave on the wire.
func hello(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := server.WriteClientHello(nc); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := server.ReadServerHello(nc); err != nil {
		t.Fatal(err)
	}
	return nc
}

// v2Header is a frame header declaring n bytes after the length field.
func v2Header(n uint32, op byte, id uint32) []byte {
	hdr := make([]byte, 10)
	binary.BigEndian.PutUint32(hdr, n)
	hdr[4] = op
	binary.BigEndian.PutUint32(hdr[6:], id)
	return hdr
}

// expectClose fails unless the server closes nc within the deadline.
func expectClose(t *testing.T, nc net.Conn, within time.Duration, what string) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(within))
	if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("%s: read returned %v, want EOF from server close", what, err)
	}
}

// TestSlowLoris: a client that trickles part of the hello, or part of a
// frame after a completed hello, and then stalls is cut off by the frame
// timeout, and the server keeps serving others.
func TestSlowLoris(t *testing.T) {
	db := openBig(t, 10)
	_, addr := startServer(t, db, func(c *server.Config) {
		c.FrameTimeout = 150 * time.Millisecond
	})

	t.Run("mid-hello", func(t *testing.T) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		// Two hello bytes, then silence.
		if _, err := nc.Write([]byte("SC")); err != nil {
			t.Fatal(err)
		}
		expectClose(t, nc, 3*time.Second, "stalled hello")
	})
	t.Run("mid-frame", func(t *testing.T) {
		nc := hello(t, addr)
		// Half a frame header, then silence.
		if _, err := nc.Write(v2Header(6, server.V2OpPing, 1)[:5]); err != nil {
			t.Fatal(err)
		}
		expectClose(t, nc, 3*time.Second, "stalled frame")
	})

	// Healthy clients are unaffected.
	if err := dial(t, addr).Ping(); err != nil {
		t.Fatalf("ping after slow-loris: %v", err)
	}
}

// TestNotAHello: a connection that opens with four bytes other than the
// hello magic is closed at once, unanswered — well inside the frame
// timeout, which would be the slow-loris path.
func TestNotAHello(t *testing.T) {
	db := openBig(t, 10)
	_, addr := startServer(t, db, func(c *server.Config) {
		c.FrameTimeout = 5 * time.Second
	})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// What a protocol-v1 client sent first: a JSON frame's length prefix.
	if _, err := nc.Write([]byte{0, 0, 0, 13}); err != nil {
		t.Fatal(err)
	}
	expectClose(t, nc, 2*time.Second, "non-magic opening")
}

// TestOversizedFrame: a frame above the limit is rejected by its declared
// length — the server answers with bad_request and drops the connection
// without reading the payload.
func TestOversizedFrame(t *testing.T) {
	db := openBig(t, 10)
	_, addr := startServer(t, db, func(c *server.Config) {
		c.MaxFrame = 1024
	})
	nc := hello(t, addr)
	if _, err := nc.Write(v2Header(1<<28, server.V2OpQuery, 7)); err != nil {
		t.Fatal(err)
	}
	f, err := server.ReadV2Frame(nc, server.DefaultMaxFrame)
	if err != nil {
		t.Fatalf("reading rejection: %v", err)
	}
	if f.Op != server.V2OpError || f.ID != 7 {
		t.Fatalf("oversized frame: got op 0x%02x id %d, want an error frame for id 7", f.Op, f.ID)
	}
	if code, _, err := server.DecodeV2Error(f.Payload); err != nil || code != server.CodeBadRequest {
		t.Errorf("oversized frame: got code %q (%v), want bad_request", code, err)
	}
	expectClose(t, nc, 3*time.Second, "after oversized frame")
}

// TestDisconnectCancelsQuery is the tentpole's acceptance test: a client
// that vanishes mid-query stops consuming executor workers within one
// morsel boundary. The join below runs ~7s to completion; after the
// disconnect the server's in-flight gauge must hit zero and the canceled
// counter must tick in a small fraction of that.
func TestDisconnectCancelsQuery(t *testing.T) {
	db := openBig(t, 4000)
	srv, addr := startServer(t, db, nil)

	victim, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := victim.Query(slowJoin)
		errc <- err
	}()

	waitUntil(t, 4*time.Second, func() bool {
		return srv.Stats().Server.InFlight == 1
	}, "query to start")

	start := time.Now()
	victim.Close()
	if err := <-errc; err == nil {
		t.Fatal("query on a closed connection should error")
	}
	waitUntil(t, 4*time.Second, func() bool {
		st := srv.Stats()
		return st.Server.InFlight == 0 && st.Server.Canceled >= 1
	}, "executor to unwind after disconnect")
	if d := time.Since(start); d > 4*time.Second {
		t.Errorf("cancellation took %s", d)
	}
}

// TestRequestDeadline: a per-request timeout stops the statement and maps
// to context.DeadlineExceeded on the client.
func TestRequestDeadline(t *testing.T) {
	db := openBig(t, 4000)
	_, addr := startServer(t, db, nil)
	c := dial(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.QueryCtx(ctx, slowJoin)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 4*time.Second {
		t.Errorf("deadline enforcement took %s", d)
	}
	// The connection survives a deadline (the server answered in-band).
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after deadline: %v", err)
	}
}

// TestAdmissionShedsLoad: with one execution slot and one queue slot,
// concurrent slow queries are shed with the typed busy error, the
// in-flight peak never exceeds the limit, and rejections are counted.
func TestAdmissionShedsLoad(t *testing.T) {
	db := openBig(t, 1000)
	srv, addr := startServer(t, db, func(c *server.Config) {
		c.MaxInFlight = 1
		c.MaxQueue = 1
		c.QueueTimeout = 100 * time.Millisecond
	})

	const clients = 4
	var busy, ok int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		c := dial(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Query(slowJoin)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, client.ErrBusy):
				busy++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Error("no query succeeded under admission control")
	}
	if busy == 0 {
		t.Error("no query was shed as busy")
	}
	st := srv.Stats()
	if st.Server.InFlightPeak > 1 {
		t.Errorf("in-flight peak %d exceeds limit 1", st.Server.InFlightPeak)
	}
	if st.Server.Rejected != uint64(busy) {
		t.Errorf("rejected counter %d, want %d", st.Server.Rejected, busy)
	}
}

// TestGracefulShutdownDrains: shutdown under load lets every in-flight
// query finish and deliver its response, then refuses new connections.
func TestGracefulShutdownDrains(t *testing.T) {
	db := openBig(t, 1000)
	srv, addr := startServer(t, db, nil)

	const clients = 3
	results := make(chan error, clients)
	for i := 0; i < clients; i++ {
		c := dial(t, addr)
		go func() {
			rows, err := c.Query(slowJoin)
			if err == nil && len(rows.Data) != 1 {
				err = errors.New("wrong row count")
			}
			results <- err
		}()
	}
	waitUntil(t, 4*time.Second, func() bool {
		return srv.Stats().Server.InFlight == clients
	}, "all queries in flight")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	for i := 0; i < clients; i++ {
		if err := <-results; err != nil {
			t.Errorf("drained query %d: %v", i, err)
		}
	}
	if _, err := client.Dial(addr); err == nil {
		t.Error("dial after shutdown should fail")
	}
}

// TestForcedShutdownCancels: when the drain window is shorter than the
// in-flight work, shutdown cancels the executor instead of waiting the
// query out.
func TestForcedShutdownCancels(t *testing.T) {
	db := openBig(t, 4000)
	srv, addr := startServer(t, db, nil)
	c := dial(t, addr)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Query(slowJoin)
		errc <- err
	}()
	waitUntil(t, 4*time.Second, func() bool {
		return srv.Stats().Server.InFlight == 1
	}, "query to start")

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Error("forced shutdown should report the expired drain window")
	}
	if err := <-errc; err == nil {
		t.Error("in-flight query should fail on forced shutdown")
	}
	if d := time.Since(start); d > 4*time.Second {
		t.Errorf("forced shutdown took %s", d)
	}
}
