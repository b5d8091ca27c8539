package storage

import (
	"testing"

	"scdb/internal/model"
)

// morselTable builds a table with inserts, updates, and deletes so the
// version chains are non-trivial.
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
		id, err := tb.Insert(rec("i", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 100; i += 7 {
		if err := tb.Update(ids[i], rec("i", i, "u", true)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i += 13 {
		if err := tb.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	return s, tb
}

// TestScanMorselsMatchesScanAt: chunked scans must visit exactly the rows
// and versions ScanAt visits, in the same order, for any chunk size and at
// historical snapshots.
func TestScanMorselsMatchesScanAt(t *testing.T) {
	s, tb := morselTable(t)
	for _, csn := range []CSN{s.Now(), s.Now() / 2, 1} {
		var wantIDs []RowID
		var wantRecs []model.Record
		tb.ScanAt(csn, func(id RowID, r model.Record) bool {
			wantIDs = append(wantIDs, id)
			wantRecs = append(wantRecs, r)
			return true
		})
		for _, size := range []int{1, 3, 17, 100, 1000, 0} {
			var gotIDs []RowID
			var gotRecs []model.Record
			tb.ScanMorselsCtx(nil, csn, size, func(ids []RowID, recs []model.Record) bool {
				gotIDs = append(gotIDs, ids...)
				gotRecs = append(gotRecs, recs...)
				return true
			})
			if len(gotIDs) != len(wantIDs) {
				t.Fatalf("csn %d size %d: %d rows, want %d", csn, size, len(gotIDs), len(wantIDs))
			}
			for i := range wantIDs {
				if gotIDs[i] != wantIDs[i] {
					t.Fatalf("csn %d size %d: row %d id %d, want %d", csn, size, i, gotIDs[i], wantIDs[i])
				}
				for k, v := range wantRecs[i] {
					if !model.Equal(gotRecs[i][k], v) {
						t.Fatalf("csn %d size %d: row %d key %q = %v, want %v",
							csn, size, i, k, gotRecs[i][k], v)
					}
				}
			}
		}
	}
}

// TestScanMorselsEarlyStop: returning false stops the scan after the
// current chunk.
func TestScanMorselsEarlyStop(t *testing.T) {
	_, tb := morselTable(t)
	chunks, rows := 0, 0
	tb.ScanMorselsCtx(nil, tb.store.Now(), 10, func(ids []RowID, recs []model.Record) bool {
		chunks++
		rows += len(ids)
		return chunks < 2
	})
	if chunks != 2 {
		t.Errorf("chunks = %d, want 2", chunks)
	}
	if rows > 2*2*10 {
		t.Errorf("rows = %d; early stop leaked chunks", rows)
	}
}

// TestScanMorselsRetainable: emitted slices must stay valid after the
// callback returns (the executor hands them across goroutines).
func TestScanMorselsRetainable(t *testing.T) {
	_, tb := morselTable(t)
	var chunks [][]model.Record
	tb.ScanMorselsCtx(nil, tb.store.Now(), 8, func(ids []RowID, recs []model.Record) bool {
		chunks = append(chunks, recs)
		return true
	})
	var flat []model.Record
	for _, c := range chunks {
		flat = append(flat, c...)
	}
	i := 0
	tb.ScanAt(tb.store.Now(), func(id RowID, r model.Record) bool {
		for k, v := range r {
			if !model.Equal(flat[i][k], v) {
				t.Fatalf("retained chunk diverged at row %d key %q", i, k)
			}
		}
		i++
		return true
	})
	if i != len(flat) {
		t.Fatalf("row counts differ: %d vs %d", i, len(flat))
	}
}
