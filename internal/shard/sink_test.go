package shard_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"scdb"
	"scdb/internal/model"
	"scdb/internal/query"
)

// stopSink takes a statement's first batch and refuses the next, as a
// connection that dies mid-stream does.
type stopSink struct{ batches int }

func (s *stopSink) EmitBatch([]string, [][]model.Value) bool {
	s.batches++
	return s.batches == 1
}

// TestStoppedSinkCachesNoPartialAnswer: on a 3-shard router, a sink that
// stops after its first batch ends the statement with query.ErrEmitStopped,
// on the concatenation path and on the final-phase path, with and without
// a hidden ORDER BY key, and the next identical read answers in full, on
// the router and through its server.
func TestStoppedSinkCachesNoPartialAnswer(t *testing.T) {
	c := newTestCluster(t, 3)
	const n = query.DefaultMorselSize + 100
	src := scdb.Source{Name: "big"}
	for i := 0; i < n; i++ {
		src.Entities = append(src.Entities, scdb.Entity{Key: fmt.Sprintf("row-%05d", i), Attrs: scdb.Record{"v": int64(i), "w": int64(n - i)}})
	}
	ctx := context.Background()
	if _, err := c.rc.IngestBatch(ctx, src, 0); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"SELECT v FROM big", "SELECT v FROM big ORDER BY v DESC", "SELECT v FROM big ORDER BY w"} {
		sink := &stopSink{}
		if _, _, err := c.router.QueryBatchesCtx(ctx, q, sink); !errors.Is(err, query.ErrEmitStopped) {
			t.Fatalf("%s: a stopping sink ends the statement with %v, want %v", q, err, query.ErrEmitStopped)
		}
		if sink.batches != 2 {
			t.Fatalf("%s: the sink saw %d batches, want 2", q, sink.batches)
		}
		rows, _, err := c.router.QueryInfoCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := c.rc.QueryCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Data) != n || len(wire.Data) != n {
			t.Errorf("%s after the stop: %d rows on the router, %d through its server, want %d", q, len(rows.Data), len(wire.Data), n)
		}
	}
}
