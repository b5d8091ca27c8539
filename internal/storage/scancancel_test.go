package storage

import (
	"context"
	"testing"

	"scdb/internal/model"
)

// TestScanMorselsCtxCancel: a context canceled mid-scan ends the cursor —
// the next pull yields nothing.
func TestScanMorselsCtxCancel(t *testing.T) {
	_, tb := morselTable(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := tb.ScanMorselsCtx(ctx, tb.store.Now(), 10)
	chunks := 0
	for c.Next() != nil {
		chunks++
		if chunks == 2 {
			cancel()
		}
	}
	if chunks != 2 {
		t.Errorf("yielded %d chunks after cancel at 2", chunks)
	}
	// A nil ctx scans everything.
	c = tb.ScanMorselsCtx(nil, tb.store.Now(), 10)
	if all, _ := drain(&c); len(all) != tb.Len() {
		t.Errorf("nil-ctx scan saw %d rows, table has %d", len(all), tb.Len())
	}
}

// TestScanWhereCtxCancel: the pushed-down scan observes ScanOptions.Ctx
// between zone segments.
func TestScanWhereCtxCancel(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, err := s.CreateTable("w")
	if err != nil {
		t.Fatal(err)
	}
	// Enough rows to span several zone segments.
	for i := 0; i < 5000; i++ {
		if _, err := insert(tb, model.Record{"v": model.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	preds := []model.Conjunct{{Attr: "v", Op: ">=", Val: model.Int(0)}}
	c := tb.ScanWhere(s.Now(), preds, ScanOptions{Ctx: ctx, NoAuto: true})
	if got, _ := drain(&c); len(got) != 0 {
		t.Errorf("pre-canceled ScanWhere yielded %d rows", len(got))
	}
	// Sanity: without cancellation the same scan sees every row.
	c = tb.ScanWhere(s.Now(), preds, ScanOptions{NoAuto: true})
	if got, _ := drain(&c); len(got) != 5000 {
		t.Errorf("uncanceled ScanWhere yielded %d rows, want 5000", len(got))
	}
}
