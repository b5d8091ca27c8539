package scdb

import (
	"context"
	"errors"
	"fmt"
	"testing"

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

// TestStoppedSinkCachesNoPartialAnswer: a sink that stops after its first
// batch ends the statement with query.ErrEmitStopped, and the rows it took
// are not the cached answer: the next identical read executes and answers
// in full, and only the one after it is a cache hit.
func TestStoppedSinkCachesNoPartialAnswer(t *testing.T) {
	const rows = 50
	db, err := Open(Options{MorselSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx := db.Begin(Snapshot)
	for i := 0; i < rows; i++ {
		if _, err := tx.Insert("items", Record{"k": fmt.Sprintf("it-%03d", i), "qty": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const q = "SELECT k, qty FROM items"
	sink := &stopSink{}
	if _, _, err := db.QueryBatchesCtx(ctx, q, sink); !errors.Is(err, query.ErrEmitStopped) {
		t.Fatalf("a stopping sink ends the statement with %v, want %v", err, query.ErrEmitStopped)
	}
	if sink.batches != 2 {
		t.Fatalf("the sink saw %d batches, want 2", sink.batches)
	}
	for i, wantHit := range []bool{false, true} {
		res, info, err := db.QueryInfoCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Data) != rows || info.CacheHit != wantHit {
			t.Errorf("read %d after the stop: %d rows, cache hit %v; want %d rows, cache hit %v", i+1, len(res.Data), info.CacheHit, rows, wantHit)
		}
	}
}
