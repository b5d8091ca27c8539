package server_test

// Pipelining edge cases on protocol v2: one connection, many in-flight
// requests, responses out of order — the failure modes are a slow request
// blocking a fast one, a deadline poisoning the pipeline, and a
// disconnect leaking in-flight work. All of these run under -race in CI.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"scdb/client"
	"scdb/internal/server"
)

// TestPipelineOutOfOrder: a ping pipelined behind a long query on the
// SAME connection completes while the query is still running — the proof
// that responses are matched by request id, not arrival order.
func TestPipelineOutOfOrder(t *testing.T) {
	db := openBig(t, 4000)
	srv, addr := startServer(t, db, nil)
	c := dial(t, addr)

	queryDone := make(chan error, 1)
	go func() {
		_, err := c.Query(slowJoin)
		queryDone <- err
	}()
	waitUntil(t, 4*time.Second, func() bool {
		return srv.Stats().Server.InFlight == 1
	}, "slow query to start")

	// The slow join runs for seconds; the pipelined ping must not wait
	// for it.
	start := time.Now()
	if err := c.Ping(); err != nil {
		t.Fatalf("pipelined ping: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("pipelined ping took %s — it queued behind the slow query", d)
	}
	select {
	case err := <-queryDone:
		t.Fatalf("slow query finished before the ping assertion (err=%v); the test proved nothing", err)
	default:
	}
	if err := <-queryDone; err != nil {
		t.Fatalf("slow query after pipelined ping: %v", err)
	}
}

// TestPipelineConcurrentQueries: one connection carries genuinely
// concurrent statements — the server's admission in-flight peak must
// exceed one, which a strictly request-response connection can never do.
func TestPipelineConcurrentQueries(t *testing.T) {
	db := openBig(t, 800)
	srv, addr := startServer(t, db, nil)
	c := dial(t, addr)

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Query(slowJoin)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pipelined query %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.Server.InFlightPeak < 2 {
		t.Errorf("in-flight peak = %d over one pipelined connection, want >= 2", st.Server.InFlightPeak)
	}
	if st.Server.ConnsTotal != 1 {
		t.Errorf("conns_total = %d, want the one pipelined connection", st.Server.ConnsTotal)
	}
}

// TestPipelineDeadlineMidStream: a deadline expiring on one pipelined
// request fails that request alone — the requests behind it and the
// connection itself survive.
func TestPipelineDeadlineMidStream(t *testing.T) {
	db := openBig(t, 4000)
	srv, addr := startServer(t, db, nil)
	c := dial(t, addr)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	slowDone := make(chan error, 1)
	go func() {
		_, err := c.QueryCtx(ctx, slowJoin)
		slowDone <- err
	}()

	// Pipeline a fast statement behind the doomed one.
	if _, err := c.Query("SELECT COUNT(*) AS n FROM big"); err != nil {
		t.Fatalf("fast query pipelined behind doomed one: %v", err)
	}
	if err := <-slowDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("doomed query err = %v, want DeadlineExceeded", err)
	}
	// The connection is not poisoned.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after mid-pipeline deadline: %v", err)
	}
	waitUntil(t, 4*time.Second, func() bool {
		return srv.Stats().Server.InFlight == 0
	}, "deadline-stopped executor to unwind")
}

// TestPipelineCancelOp: explicit context cancellation sends a cancel
// frame; the server stops the statement and still answers it, so the
// connection stays framed and reusable.
func TestPipelineCancelOp(t *testing.T) {
	db := openBig(t, 4000)
	srv, addr := startServer(t, db, nil)
	c := dial(t, addr)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.QueryCtx(ctx, slowJoin)
		done <- err
	}()
	waitUntil(t, 4*time.Second, func() bool {
		return srv.Stats().Server.InFlight == 1
	}, "query to start")

	cancel()
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query err = %v, want context.Canceled", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after cancel op: %v", err)
	}
	waitUntil(t, 4*time.Second, func() bool {
		st := srv.Stats()
		return st.Server.InFlight == 0 && st.Server.Canceled >= 1
	}, "canceled executor to unwind")
}

// TestPipelineDisconnectInFlight: closing a connection with several
// requests in flight cancels all of them on the server — no leaked
// executor work, no stuck admission slots.
func TestPipelineDisconnectInFlight(t *testing.T) {
	db := openBig(t, 4000)
	srv, addr := startServer(t, db, func(cfg *server.Config) {
		cfg.MaxInFlight = 8
	})
	victim, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}

	const n = 3
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			victim.Query(slowJoin) // fails on close; error checked via metrics
		}()
	}
	waitUntil(t, 4*time.Second, func() bool {
		return srv.Stats().Server.InFlight == n
	}, "all pipelined queries to start")

	victim.Close()
	wg.Wait()
	waitUntil(t, 4*time.Second, func() bool {
		st := srv.Stats()
		return st.Server.InFlight == 0 && st.Server.Canceled >= n
	}, "disconnect to cancel every in-flight request")
}

// TestPipelineShedsAtCap: requests beyond MaxPipeline on one connection
// are shed with ErrBusy without touching admission.
func TestPipelineShedsAtCap(t *testing.T) {
	db := openBig(t, 1600)
	_, addr := startServer(t, db, func(cfg *server.Config) {
		cfg.MaxPipeline = 2
		cfg.MaxInFlight = 16
	})
	c := dial(t, addr)

	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Query(slowJoin)
		}(i)
	}
	wg.Wait()
	busy := 0
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, client.ErrBusy):
			busy++
		default:
			t.Fatalf("unexpected error at pipeline cap: %v", err)
		}
	}
	if busy == 0 {
		t.Error("no request was shed at the pipeline cap")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after pipeline shedding: %v", err)
	}
}
