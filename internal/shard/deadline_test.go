package shard_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scdb"
	"scdb/client"
	"scdb/internal/query"
	"scdb/internal/server"
	"scdb/internal/shard"
)

// stallEngine is a shard's engine that, once stalling, holds every query
// until released, whatever its deadline says, and records how long the
// query had left when it arrived.
type stallEngine struct {
	*scdb.DB
	stalling atomic.Bool
	release  chan struct{}

	mu   sync.Mutex
	left []time.Duration
}

func (e *stallEngine) QueryBatchesCtx(ctx context.Context, q string, sink query.BatchSink) ([]string, scdb.QueryInfo, error) {
	if e.stalling.Load() {
		d, ok := ctx.Deadline()
		e.mu.Lock()
		if ok {
			e.left = append(e.left, time.Until(d))
		} else {
			e.left = append(e.left, -1)
		}
		e.mu.Unlock()
		<-e.release
	}
	return e.DB.QueryBatchesCtx(ctx, q, sink)
}

// serve runs a server over e and shuts it down with the test.
func serve(t *testing.T, e server.Engine) *server.Server {
	t.Helper()
	srv := server.New(server.Config{Addr: "127.0.0.1:0", DB: e})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// TestRoutedDeadline: a 3-shard router whose shards stall past the
// caller's deadline answers context.DeadlineExceeded within the deadline
// plus the client's grace, and the router's request ends then too rather
// than when the shards answer. Each shard was given a timeout no longer
// than the time the router had left.
func TestRoutedDeadline(t *testing.T) {
	const timeout = 300 * time.Millisecond
	const grace = 2 * time.Second // client.deadlineGrace
	release := make(chan struct{})
	var engines []*stallEngine
	var addrs []string
	for range 3 {
		db, err := scdb.Open(scdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		e := &stallEngine{DB: db, release: release}
		engines = append(engines, e)
		addrs = append(addrs, serve(t, e).Addr().String())
	}
	r, err := shard.Dial(shard.Config{}, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	srv := serve(t, r)
	// Released before the servers shut down, so their drains do not wait.
	t.Cleanup(func() { close(release) })
	rc, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	src := scdb.Source{Name: "items"}
	for _, k := range keyOnEachShard("S", 3) {
		src.Entities = append(src.Entities, scdb.Entity{Key: k, Attrs: scdb.Record{"name": k}})
	}
	if err := rc.Ingest(src); err != nil {
		t.Fatal(err)
	}

	for _, e := range engines {
		e.stalling.Store(true)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	_, err = rc.QueryCtx(ctx, "SELECT name FROM items")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a query past its deadline on stalled shards: %v, want DeadlineExceeded", err)
	}
	within := timeout + grace + time.Second
	if d := time.Since(start); d > within {
		t.Errorf("the caller got its answer after %s, want within %s", d, within)
	}
	// The router's own request ends at its deadline plus the grace its
	// shard calls wait, not when the shards answer.
	for srv.Stats().Server.InFlight != 0 {
		if time.Since(start) > within {
			t.Fatalf("the router's request is still in flight %s after it started", time.Since(start))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, e := range engines {
		e.mu.Lock()
		left := e.left
		e.mu.Unlock()
		if len(left) != 1 || left[0] <= 0 || left[0] > timeout {
			t.Errorf("shard %d was given %v to its deadline, want one query with at most the router's %s", i, left, timeout)
		}
	}
}
