package server_test

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"scdb"
	"scdb/internal/model"
	"scdb/internal/query"
	"scdb/internal/server"
)

// stopEngine is a server's engine that, while stopping, hands each
// statement a sink that forwards its first batch to the request and
// refuses the next, as a connection that dies mid-stream does.
type stopEngine struct {
	*scdb.DB
	stopping atomic.Bool
}

func (e *stopEngine) QueryBatchesCtx(ctx context.Context, q string, sink query.BatchSink) ([]string, scdb.QueryInfo, error) {
	if e.stopping.Load() {
		sink = &stopAfterFirst{to: sink}
	}
	return e.DB.QueryBatchesCtx(ctx, q, sink)
}

type stopAfterFirst struct {
	to      query.BatchSink
	batches int
}

func (s *stopAfterFirst) EmitBatch(cols []string, batch [][]model.Value) bool {
	s.batches++
	return s.batches == 1 && s.to.EmitBatch(cols, batch)
}

// TestStoppedSinkCachesNoPartialAnswer: on a server, a sink that stops
// after its first batch ends the statement with query.ErrEmitStopped, which
// the client reads as a query error, and the rows the sink took are not the
// cached answer: the next identical read answers in full from an
// execution, and only the one after it is a cache hit.
func TestStoppedSinkCachesNoPartialAnswer(t *testing.T) {
	const rows = 50
	db := openDB(t, scdb.Options{MorselSize: 8})
	tx := db.Begin(scdb.Snapshot)
	for i := 0; i < rows; i++ {
		if _, err := tx.Insert("items", scdb.Record{"k": fmt.Sprintf("it-%03d", i), "qty": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e := &stopEngine{DB: db}
	_, addr := startServer(t, db, func(cfg *server.Config) { cfg.DB = e })
	c := dial(t, addr)
	ctx := context.Background()
	const q = "SELECT k, qty FROM items"
	e.stopping.Store(true)
	if _, err := c.QueryCtx(ctx, q); err == nil || !strings.Contains(err.Error(), query.ErrEmitStopped.Error()) {
		t.Fatalf("a stopping sink answers %v, want an error naming %q", err, query.ErrEmitStopped)
	}
	e.stopping.Store(false)
	for i, wantHit := range []bool{false, true} {
		res, info, err := c.QueryInfoCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Data) != rows || info.CacheHit != wantHit {
			t.Errorf("read %d after the stop: %d rows, cache hit %v; want %d rows, cache hit %v", i+1, len(res.Data), info.CacheHit, rows, wantHit)
		}
	}
}
