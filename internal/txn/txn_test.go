package txn

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"scdb/internal/model"
	"scdb/internal/storage"
)

func setup(t *testing.T) (*storage.Store, *Manager, *atomic.Uint64) {
	t.Helper()
	s, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	var enrich atomic.Uint64
	m := NewManager(s, enrich.Load)
	if _, err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	return s, m, &enrich
}

func rec(v int) model.Record { return model.Record{"v": model.Int(int64(v))} }

// insert and update write one row outside any transaction, each a
// one-row write set of its own.
func insert(tb *storage.Table, r model.Record) (storage.RowID, error) {
	ids, err := tb.InsertBatch([]model.Record{r})
	return ids[0], err
}

func update(s *storage.Store, tb *storage.Table, id storage.RowID, r model.Record) error {
	_, err := s.Commit([]storage.Write{{Table: tb, ID: id, Rec: r}})
	return err
}

func TestCommitInsertVisible(t *testing.T) {
	s, m, _ := setup(t)
	tx := m.Begin(Snapshot)
	if _, err := tx.Insert("t", rec(1)); err != nil {
		t.Fatal(err)
	}
	info, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if info.CSN == 0 {
		t.Error("commit CSN missing")
	}
	tb, _ := s.Table("t")
	if tb.Len() != 1 {
		t.Errorf("Len = %d", tb.Len())
	}
	if m.Stats().Commits != 1 {
		t.Errorf("stats = %+v", m.Stats())
	}
}

func TestSnapshotReads(t *testing.T) {
	s, m, _ := setup(t)
	tb, _ := s.Table("t")
	id, _ := insert(tb, rec(1))

	tx := m.Begin(Snapshot)
	// Concurrent direct write after the snapshot.
	update(s, tb, id, rec(2))
	got, ok, err := tx.Get("t", id)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if !model.Equal(got["v"], model.Int(1)) {
		t.Errorf("snapshot read = %v, want pre-update value", got["v"])
	}
	tx.Abort()
}

func TestReadYourOwnWrites(t *testing.T) {
	s, m, _ := setup(t)
	tb, _ := s.Table("t")
	id, _ := insert(tb, rec(1))

	tx := m.Begin(Snapshot)
	tx.Update("t", id, rec(5))
	got, ok, _ := tx.Get("t", id)
	if !ok || !model.Equal(got["v"], model.Int(5)) {
		t.Errorf("own write invisible: %v", got)
	}
	nid, _ := tx.Insert("t", rec(7))
	if got, ok, _ := tx.Get("t", nid); !ok || !model.Equal(got["v"], model.Int(7)) {
		t.Error("own insert invisible")
	}
	// Scan sees the update and the insert, not duplicates.
	count := 0
	vals := map[int64]bool{}
	tx.Scan("t", func(_ storage.RowID, r model.Record) bool {
		count++
		v, _ := r["v"].AsInt()
		vals[v] = true
		return true
	})
	if count != 2 || !vals[5] || !vals[7] {
		t.Errorf("scan saw %d rows, vals %v", count, vals)
	}
	tx.Delete("t", id)
	if _, ok, _ := tx.Get("t", id); ok {
		t.Error("own delete invisible")
	}
	tx.Abort()
	// Abort discarded everything.
	if got, _ := tb.Get(id); !model.Equal(got["v"], model.Int(1)) {
		t.Error("abort leaked writes")
	}
}

func TestFirstCommitterWins(t *testing.T) {
	s, m, _ := setup(t)
	tb, _ := s.Table("t")
	id, _ := insert(tb, rec(1))

	t1 := m.Begin(Snapshot)
	t2 := m.Begin(Snapshot)
	t1.Update("t", id, rec(10))
	t2.Update("t", id, rec(20))
	if _, err := t1.Commit(); err != nil {
		t.Fatalf("first committer must win: %v", err)
	}
	_, err := t2.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer must conflict, got %v", err)
	}
	if m.Stats().WriteConflicts != 1 {
		t.Errorf("stats = %+v", m.Stats())
	}
	if got, _ := tb.Get(id); !model.Equal(got["v"], model.Int(10)) {
		t.Errorf("final value = %v", got["v"])
	}
}

func TestNoConflictOnDisjointRows(t *testing.T) {
	s, m, _ := setup(t)
	tb, _ := s.Table("t")
	id1, _ := insert(tb, rec(1))
	id2, _ := insert(tb, rec(2))

	t1 := m.Begin(Snapshot)
	t2 := m.Begin(Snapshot)
	t1.Update("t", id1, rec(10))
	t2.Update("t", id2, rec(20))
	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Commit(); err != nil {
		t.Fatalf("disjoint writes must both commit: %v", err)
	}
}

func TestEnrichmentPhantomAbortsSnapshot(t *testing.T) {
	_, m, enrich := setup(t)
	tx := m.Begin(Snapshot)
	tx.MarkSemanticRead()
	enrich.Add(3) // enrichment churn (merges, inference) during the txn
	_, err := tx.Commit()
	if !errors.Is(err, ErrEnrichmentPhantom) {
		t.Fatalf("want enrichment phantom abort, got %v", err)
	}
	if m.Stats().EnrichmentAborts != 1 {
		t.Errorf("stats = %+v", m.Stats())
	}
}

func TestEnrichmentIgnoredWithoutSemanticRead(t *testing.T) {
	_, m, enrich := setup(t)
	tx := m.Begin(Snapshot)
	tx.Insert("t", rec(1))
	enrich.Add(5)
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("non-semantic txn must survive enrichment: %v", err)
	}
}

func TestEventualEnrichmentReportsStaleness(t *testing.T) {
	_, m, enrich := setup(t)
	tx := m.Begin(EventualEnrichment)
	tx.MarkSemanticRead()
	tx.Insert("t", rec(1))
	enrich.Add(4)
	info, err := tx.Commit()
	if err != nil {
		t.Fatalf("relaxed isolation must commit: %v", err)
	}
	if info.EnrichmentStaleness != 4 {
		t.Errorf("staleness = %d, want 4", info.EnrichmentStaleness)
	}
	if m.Stats().EnrichmentAborts != 0 {
		t.Errorf("stats = %+v", m.Stats())
	}
}

func TestDoneTransactionRejected(t *testing.T) {
	_, m, _ := setup(t)
	tx := m.Begin(Snapshot)
	tx.Abort()
	if _, err := tx.Commit(); !errors.Is(err, ErrDone) {
		t.Error("commit after abort must fail")
	}
	if _, err := tx.Insert("t", rec(1)); !errors.Is(err, ErrDone) {
		t.Error("insert after abort must fail")
	}
	if err := tx.Update("t", 1, rec(1)); !errors.Is(err, ErrDone) {
		t.Error("update after abort must fail")
	}
	if err := tx.Delete("t", 1); !errors.Is(err, ErrDone) {
		t.Error("delete after abort must fail")
	}
	if _, _, err := tx.Get("t", 1); !errors.Is(err, ErrDone) {
		t.Error("get after abort must fail")
	}
	if err := tx.Scan("t", nil); !errors.Is(err, ErrDone) {
		t.Error("scan after abort must fail")
	}
}

func TestUpdateUnknownRowFails(t *testing.T) {
	_, m, _ := setup(t)
	tx := m.Begin(Snapshot)
	if err := tx.Update("t", 999, rec(1)); err == nil {
		t.Error("update of unknown row must fail")
	}
	if err := tx.Delete("t", 999); err == nil {
		t.Error("delete of unknown row must fail")
	}
	if err := tx.Update("nope", 1, rec(1)); err == nil {
		t.Error("unknown table must fail")
	}
	tx.Abort()
}

func TestInsertThenDeleteIsNoop(t *testing.T) {
	s, m, _ := setup(t)
	tx := m.Begin(Snapshot)
	id, _ := tx.Insert("t", rec(1))
	if err := tx.Delete("t", id); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tb, _ := s.Table("t")
	if tb.Len() != 0 {
		t.Errorf("Len = %d, want 0", tb.Len())
	}
}

func TestAtomicCommitStamp(t *testing.T) {
	s, m, _ := setup(t)
	tx := m.Begin(Snapshot)
	tx.Insert("t", rec(1))
	tx.Insert("t", rec(2))
	before := s.Now()
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Both rows visible at exactly one CSN past `before`.
	tb, _ := s.Table("t")
	n := 0
	tb.ScanAt(before+1, func(storage.RowID, model.Record) bool { n++; return true })
	if n != 2 {
		t.Errorf("rows at commit stamp = %d, want 2 (atomicity)", n)
	}
	n = 0
	tb.ScanAt(before, func(storage.RowID, model.Record) bool { n++; return true })
	if n != 0 {
		t.Errorf("rows before commit = %d, want 0", n)
	}
}

func TestOldestSnapshotGuardsVacuum(t *testing.T) {
	s, m, _ := setup(t)
	tb, _ := s.Table("t")
	id, _ := insert(tb, rec(1))

	// A reader opens at v=1; concurrent updates pile up versions.
	reader := m.Begin(Snapshot)
	update(s, tb, id, rec(2))
	update(s, tb, id, rec(3))

	// Vacuuming at the manager's horizon must keep the reader's version.
	removed := tb.Vacuum(m.OldestSnapshot())
	if removed != 0 {
		t.Errorf("vacuum removed %d versions under an active snapshot", removed)
	}
	got, ok, err := reader.Get("t", id)
	if err != nil || !ok || !model.Equal(got["v"], model.Int(1)) {
		t.Errorf("reader lost its version: %v %v %v", got, ok, err)
	}
	reader.Abort()
	// With the reader gone the horizon advances and history is reclaimed.
	if removed := tb.Vacuum(m.OldestSnapshot()); removed != 2 {
		t.Errorf("vacuum after release removed %d, want 2", removed)
	}
}

func TestInsertIDStableAcrossCommit(t *testing.T) {
	s, m, _ := setup(t)
	tx := m.Begin(Snapshot)
	id, err := tx.Insert("t", rec(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tb, _ := s.Table("t")
	got, ok := tb.Get(id)
	if !ok || !model.Equal(got["v"], model.Int(7)) {
		t.Fatalf("committed row not at its insert ID: %v %v", got, ok)
	}
	// The ID usable in a follow-up transaction.
	tx2 := m.Begin(Snapshot)
	if err := tx2.Update("t", id, rec(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, _ := tb.Get(id); !model.Equal(got["v"], model.Int(8)) {
		t.Error("update via stable ID lost")
	}
	// Aborted inserts leave gaps but no rows.
	tx3 := m.Begin(Snapshot)
	gapID, _ := tx3.Insert("t", rec(9))
	tx3.Abort()
	if _, ok := tb.Get(gapID); ok {
		t.Error("aborted insert materialized")
	}
}

func TestConcurrentWritersSerialize(t *testing.T) {
	s, m, _ := setup(t)
	tb, _ := s.Table("t")
	id, _ := insert(tb, rec(0))

	const writers = 8
	var wg sync.WaitGroup
	var commits, conflicts atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tx := m.Begin(Snapshot)
				cur, ok, err := tx.Get("t", id)
				if err != nil || !ok {
					tx.Abort()
					continue
				}
				v, _ := cur["v"].AsInt()
				if err := tx.Update("t", id, rec(int(v)+1)); err != nil {
					tx.Abort()
					continue
				}
				if _, err := tx.Commit(); err == nil {
					commits.Add(1)
				} else {
					conflicts.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	got, _ := tb.Get(id)
	v, _ := got["v"].AsInt()
	if v != commits.Load() {
		t.Errorf("counter = %d but commits = %d (lost update!)", v, commits.Load())
	}
	st := m.Stats()
	if int64(st.Commits) != commits.Load() || int64(st.WriteConflicts) != conflicts.Load() {
		t.Errorf("stats %+v vs local %d/%d", st, commits.Load(), conflicts.Load())
	}
}

// TestTxnCommitIsOneFrame: a transaction's write set installs by the store's
// one commit rule, under one stamp with one log frame a table, so a crash
// keeps a table's part of it whole or not at all, and a commit pays one
// sync-policy wait a table rather than one a row.
func TestTxnCommitIsOneFrame(t *testing.T) {
	open := func(t *testing.T, dir string, tables ...string) (*storage.Store, *Manager, map[string][]storage.RowID) {
		t.Helper()
		s, err := storage.OpenOptions(dir, storage.Options{Sync: storage.SyncGroup, CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		ids := map[string][]storage.RowID{}
		for _, name := range tables {
			tb, err := s.CreateTable(name)
			if err != nil {
				t.Fatal(err)
			}
			recs := make([]model.Record, 10)
			for i := range recs {
				recs[i] = rec(i)
			}
			if ids[name], err = tb.InsertBatch(recs); err != nil {
				t.Fatal(err)
			}
		}
		return s, NewManager(s, nil), ids
	}
	commit := func(t *testing.T, m *Manager, rows map[string][]storage.RowID, n int) {
		t.Helper()
		tx := m.Begin(Snapshot)
		for table, ids := range rows {
			for _, id := range ids[:n] {
				if err := tx.Update(table, id, rec(100+int(id))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("every cut keeps both rows or neither", func(t *testing.T) {
		dir := t.TempDir()
		s, m, ids := open(t, dir, "t")
		segs, err := filepath.Glob(filepath.Join(dir, "scdb.wal.*"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments %v: %v", segs, err)
		}
		before, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		commit(t, m, ids, 2)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		log, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		torn := 0
		for cut := len(before); cut <= len(log); cut++ {
			crash := t.TempDir()
			if err := os.WriteFile(filepath.Join(crash, filepath.Base(segs[0])), log[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := storage.Open(crash)
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			tb, _ := re.Table("t")
			updated := 0
			for _, id := range ids["t"][:2] {
				if r, _ := tb.Get(id); model.Equal(r["v"], model.Int(100+int64(id))) {
					updated++
				}
			}
			re.Close()
			if updated == 1 || (cut == len(log) && updated != 2) {
				torn++
			}
		}
		if torn > 0 {
			t.Errorf("%d of %d cuts of the commit reopen with a partial write set", torn, len(log)-len(before)+1)
		}
	})

	t.Run("ten rows cost one frame and one fsync", func(t *testing.T) {
		s, m, ids := open(t, t.TempDir(), "t")
		defer s.Close()
		w0 := s.WALStats()
		commit(t, m, ids, 10)
		w1 := s.WALStats()
		if frames, fsyncs := w1.Frames-w0.Frames, w1.Fsyncs-w0.Fsyncs; frames != 1 || fsyncs != 1 {
			t.Errorf("a 10-row commit wrote %d frames and %d fsyncs, want 1 and 1", frames, fsyncs)
		}
	})

	// A frame names one table, and one frame across tables would be a new
	// log format: a two-table write set logs a frame a table, and a crash
	// between them can keep one table's part without the other's.
	t.Run("one frame a table", func(t *testing.T) {
		s, m, ids := open(t, t.TempDir(), "a", "b")
		defer s.Close()
		w0 := s.WALStats()
		commit(t, m, ids, 3)
		w1 := s.WALStats()
		if frames := w1.Frames - w0.Frames; frames != 2 {
			t.Errorf("a commit over two tables wrote %d frames, want 2", frames)
		}
	})
}
