package storage

import (
	"bytes"
	"testing"

	"scdb/internal/model"
)

// morselTable builds a table with inserts, updates, and deletes so the
// version chains are non-trivial. Every row carries its insertion number
// under "i", so a scan's RowID order reads off its records.
func morselTable(t *testing.T) (*Store, *Table) {
	t.Helper()
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	tb, err := s.CreateTable("m")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]RowID, 0, 100)
	for i := 0; i < 100; i++ {
		id, err := insert(tb, rec("i", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 100; i += 7 {
		if err := update(tb, ids[i], rec("i", i, "u", true)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i += 13 {
		if err := del(tb, ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	return s, tb
}

// drain pulls a cursor to its end, returning its records in order and the
// chunks they came in.
func drain(c *Cursor) (recs []model.Record, chunks [][]model.Record) {
	for chunk := c.Next(); chunk != nil; chunk = c.Next() {
		recs = append(recs, chunk...)
		chunks = append(chunks, chunk)
	}
	return recs, chunks
}

// scanAt is ScanAt's answer: the records visible at csn in RowID order.
func scanAt(tb *Table, csn CSN) []model.Record {
	var recs []model.Record
	tb.ScanAt(csn, func(_ RowID, r model.Record) bool {
		recs = append(recs, r)
		return true
	})
	return recs
}

// sameRecords fails unless got and want hold the same records in the same
// order.
func sameRecords(t *testing.T, label string, got, want []model.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(model.AppendRecord(nil, got[i]), model.AppendRecord(nil, want[i])) {
			t.Fatalf("%s: row %d is %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestScanMorselsMatchesScanAt: chunked scans must visit exactly the rows
// and versions ScanAt visits, in the same order, for any chunk size and at
// historical snapshots; every chunk but the last holds at least size rows.
func TestScanMorselsMatchesScanAt(t *testing.T) {
	s, tb := morselTable(t)
	for _, csn := range []CSN{s.Now(), s.Now() / 2, 1} {
		want := scanAt(tb, csn)
		for _, size := range []int{1, 3, 17, 100, 1000, 0} {
			c := tb.ScanMorselsCtx(nil, csn, size)
			got, chunks := drain(&c)
			sameRecords(t, "scan", got, want)
			for i, c := range chunks[:max(len(chunks)-1, 0)] {
				if len(c) < size {
					t.Fatalf("csn %d size %d: chunk %d holds %d rows", csn, size, i, len(c))
				}
			}
		}
	}
}

// TestScanMorselsEarlyStop: a consumer that stops pulling stops the scan —
// two pulls read no further than the blocks they needed.
func TestScanMorselsEarlyStop(t *testing.T) {
	_, tb := morselTable(t)
	c := tb.ScanMorselsCtx(nil, tb.store.Now(), 10)
	rows := len(c.Next()) + len(c.Next())
	if rows > 2*2*10 {
		t.Errorf("rows = %d; early stop leaked chunks", rows)
	}
	if c.pos > 2*2*10 {
		t.Errorf("two pulls read %d row IDs", c.pos)
	}
}

// TestScanMorselsRetainable: yielded slices must stay valid after later
// pulls (the executor hands them across goroutines).
func TestScanMorselsRetainable(t *testing.T) {
	_, tb := morselTable(t)
	c := tb.ScanMorselsCtx(nil, tb.store.Now(), 8)
	_, chunks := drain(&c)
	var flat []model.Record
	for _, c := range chunks {
		flat = append(flat, c...)
	}
	sameRecords(t, "retained chunks", flat, scanAt(tb, tb.store.Now()))
}
