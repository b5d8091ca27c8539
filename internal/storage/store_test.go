package storage

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"scdb/internal/model"
)

func rec(kv ...any) model.Record {
	r := model.Record{}
	for i := 0; i < len(kv); i += 2 {
		k := kv[i].(string)
		switch v := kv[i+1].(type) {
		case string:
			r[k] = model.String(v)
		case int:
			r[k] = model.Int(int64(v))
		case float64:
			r[k] = model.Float(v)
		case bool:
			r[k] = model.Bool(v)
		case model.Value:
			r[k] = v
		default:
			panic(fmt.Sprintf("rec: unsupported %T", v))
		}
	}
	return r
}

func TestCreateTable(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, err := s.CreateTable("drugs")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Name() != "drugs" {
		t.Errorf("Name = %q", tb.Name())
	}
	if _, err := s.CreateTable("drugs"); err == nil {
		t.Error("duplicate CreateTable must fail")
	}
	if got, ok := s.Table("drugs"); !ok || got != tb {
		t.Error("Table lookup failed")
	}
	if _, ok := s.Table("nope"); ok {
		t.Error("lookup of missing table must fail")
	}
	s.CreateTable("aaa")
	names := s.Tables()
	if len(names) != 2 || names[0] != "aaa" || names[1] != "drugs" {
		t.Errorf("Tables = %v", names)
	}
}

func TestEnsureTable(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	a, err := s.EnsureTable("x")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.EnsureTable("x")
	if err != nil || a != b {
		t.Error("EnsureTable must be idempotent")
	}
}

func TestCRUD(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")

	id, err := tb.Insert(rec("name", "Warfarin", "dosage", 5.1))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := tb.Get(id)
	if !ok || !model.Equal(got["name"], model.String("Warfarin")) {
		t.Fatalf("Get = %v %v", got, ok)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d", tb.Len())
	}

	if err := tb.Update(id, rec("name", "Warfarin", "dosage", 3.4)); err != nil {
		t.Fatal(err)
	}
	got, _ = tb.Get(id)
	if f, _ := got["dosage"].AsFloat(); f != 3.4 {
		t.Errorf("after update dosage = %v", got["dosage"])
	}

	if err := tb.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Get(id); ok {
		t.Error("deleted row still visible")
	}
	if tb.Len() != 0 {
		t.Errorf("Len after delete = %d", tb.Len())
	}
	if err := tb.Delete(id); err == nil {
		t.Error("double delete must fail")
	}
	if err := tb.Update(id, rec("x", 1)); err == nil {
		t.Error("update of deleted row must fail")
	}
	if err := tb.Update(999, rec("x", 1)); err == nil {
		t.Error("update of unknown row must fail")
	}
}

func TestMVCCSnapshots(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")

	id, _ := tb.Insert(rec("v", 1))
	csn1 := s.Now()
	tb.Update(id, rec("v", 2))
	csn2 := s.Now()
	tb.Delete(id)

	if got, ok := tb.GetAt(id, csn1); !ok || !model.Equal(got["v"], model.Int(1)) {
		t.Errorf("at csn1: %v %v", got, ok)
	}
	if got, ok := tb.GetAt(id, csn2); !ok || !model.Equal(got["v"], model.Int(2)) {
		t.Errorf("at csn2: %v %v", got, ok)
	}
	if _, ok := tb.GetAt(id, s.Now()); ok {
		t.Error("latest must be deleted")
	}
	if _, ok := tb.GetAt(id, 0); ok {
		t.Error("before insert must be invisible")
	}
	if n := chainLen(tb, id); n != 3 {
		t.Errorf("version chain holds %d versions, want 3", n)
	}
}

// chainLen returns how many versions the row's chain holds, 0 once vacuum
// has dropped the row.
func chainLen(tb *Table, id RowID) int {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	if r, ok := tb.rows[id]; ok {
		return len(r.versions)
	}
	return 0
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")
	for i := 0; i < 10; i++ {
		tb.Insert(rec("i", i))
	}
	var seen []int64
	tb.Scan(func(id RowID, r model.Record) bool {
		v, _ := r["i"].AsInt()
		seen = append(seen, v)
		return true
	})
	if len(seen) != 10 {
		t.Fatalf("scan saw %d rows", len(seen))
	}
	for i, v := range seen {
		if v != int64(i) {
			t.Fatalf("scan order broken: %v", seen)
		}
	}
	count := 0
	tb.Scan(func(RowID, model.Record) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestScanAtHistorical(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")
	id1, _ := tb.Insert(rec("i", 1))
	csn := s.Now()
	tb.Insert(rec("i", 2))
	tb.Delete(id1)

	n := 0
	tb.ScanAt(csn, func(RowID, model.Record) bool { n++; return true })
	if n != 1 {
		t.Errorf("historical scan saw %d rows, want 1", n)
	}
	n = 0
	tb.Scan(func(RowID, model.Record) bool { n++; return true })
	if n != 1 {
		t.Errorf("latest scan saw %d rows, want 1 (id1 deleted, id2 live)", n)
	}
}

func TestVacuum(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")
	id, _ := tb.Insert(rec("v", 1))
	for i := 2; i <= 5; i++ {
		tb.Update(id, rec("v", i))
	}
	if n := chainLen(tb, id); n != 5 {
		t.Fatalf("version chain holds %d versions, want 5", n)
	}
	removed := tb.Vacuum(s.Now())
	if removed != 4 {
		t.Errorf("Vacuum removed %d, want 4", removed)
	}
	if got, ok := tb.Get(id); !ok || !model.Equal(got["v"], model.Int(5)) {
		t.Error("Vacuum must keep the live version")
	}

	// Deleting then vacuuming past the tombstone removes the row entirely.
	tb.Delete(id)
	tb.Vacuum(s.Now())
	if chainLen(tb, id) != 0 {
		t.Error("tombstoned row must be dropped by vacuum")
	}
}

func TestVacuumKeepsHorizonVisibility(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")
	id, _ := tb.Insert(rec("v", 1))
	horizon := s.Now()
	tb.Update(id, rec("v", 2))
	tb.Vacuum(horizon)
	if got, ok := tb.GetAt(id, horizon); !ok || !model.Equal(got["v"], model.Int(1)) {
		t.Errorf("vacuum at horizon must keep the version visible there; got %v %v", got, ok)
	}
}

func TestConcurrentInsertScan(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tb.Insert(rec("w", w, "i", i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tb.Scan(func(RowID, model.Record) bool { return true })
		}
	}()
	wg.Wait()
	<-done
	if tb.Len() != 800 {
		t.Errorf("Len = %d, want 800", tb.Len())
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := s.CreateTable("drugs")
	id1, _ := tb.Insert(rec("name", "Warfarin", "dose", 5.1))
	id2, _ := tb.Insert(rec("name", "Ibuprofen"))
	tb.Update(id1, rec("name", "Warfarin", "dose", 6.1))
	tb.Delete(id2)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tb2, ok := s2.Table("drugs")
	if !ok {
		t.Fatal("table lost after recovery")
	}
	if tb2.Len() != 1 {
		t.Fatalf("Len after recovery = %d", tb2.Len())
	}
	got, ok := tb2.Get(id1)
	if !ok {
		t.Fatal("row lost")
	}
	if f, _ := got["dose"].AsFloat(); f != 6.1 {
		t.Errorf("recovered dose = %v", got["dose"])
	}
	if _, ok := tb2.Get(id2); ok {
		t.Error("deleted row resurrected")
	}
	// New inserts must not collide with recovered IDs.
	id3, _ := tb2.Insert(rec("name", "Methotrexate"))
	if id3 == id1 || id3 == id2 {
		t.Errorf("row id reuse after recovery: %d", id3)
	}
}

func TestCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tb, _ := s.CreateTable("t")
	for i := 0; i < 100; i++ {
		tb.Insert(rec("i", i))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations go to the fresh log.
	tb.Insert(rec("i", 100))
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tb2, _ := s2.Table("t")
	if tb2.Len() != 101 {
		t.Errorf("Len after checkpoint+log recovery = %d, want 101", tb2.Len())
	}
}

func TestTornLogTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tb, _ := s.CreateTable("t")
	tb.Insert(rec("i", 1))
	s.Close()

	// Corrupt the log by appending garbage (simulates a torn write).
	path := segPath(dir, 1)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x00, 0xff, 0xde, 0xad})
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery with torn tail must succeed: %v", err)
	}
	defer s2.Close()
	tb2, _ := s2.Table("t")
	if tb2.Len() != 1 {
		t.Errorf("Len = %d", tb2.Len())
	}
	// The torn bytes must be gone so new appends are readable.
	tb2.Insert(rec("i", 2))
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	tb3, _ := s3.Table("t")
	if tb3.Len() != 2 {
		t.Errorf("Len after re-append = %d, want 2", tb3.Len())
	}
}

func TestMidLogCorruptionStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tb, _ := s.CreateTable("t")
	tb.Insert(rec("i", 1))
	tb.Insert(rec("i", 2))
	s.Close()

	// Flip bytes in the middle of the log: replay must stop at the first
	// bad frame (checksum) and keep what preceded it.
	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 40 {
		t.Skip("log too small to corrupt meaningfully")
	}
	mid := len(data) / 2
	data[mid] ^= 0xff
	data[mid+1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery with mid-log corruption must succeed (torn semantics): %v", err)
	}
	defer s2.Close()
	tb2, ok := s2.Table("t")
	if !ok {
		t.Fatal("table lost (creation frame preceded the corruption)")
	}
	if tb2.Len() > 2 {
		t.Errorf("rows = %d, impossible", tb2.Len())
	}
	// The store is writable after truncation at the corruption point.
	if _, err := tb2.Insert(rec("i", 3)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptSealedSegment: a bad frame in a segment that a later segment's
// intact frame follows was durable (rotation fsyncs a segment before it
// opens the next), so it is damage, not a torn tail. Open fails with
// ErrCorrupt and leaves every file as it was. A tear followed only by a
// header-only or half-written header segment, as a crash mid-rotation
// leaves it, is still a torn tail: it truncates and the later file goes.
func TestCorruptSealedSegment(t *testing.T) {
	const rows = 200
	build := func(t *testing.T) (string, []uint64) {
		t.Helper()
		dir := t.TempDir()
		s, err := OpenOptions(dir, Options{Sync: SyncAlways, SegmentBytes: 1024, CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		tb, _ := s.CreateTable("t")
		for i := 0; i < rows; i++ {
			if _, err := tb.Insert(rec("i", i, "name", fmt.Sprintf("row-%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) < 4 {
			t.Fatalf("%d segments, want at least 4", len(segs))
		}
		return dir, segs
	}
	image := func(t *testing.T, dir string) map[string]string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(b)
		}
		return files
	}

	t.Run("flipped byte in a sealed segment", func(t *testing.T) {
		dir, segs := build(t)
		p := segPath(dir, segs[1])
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := image(t, dir)
		s, err := OpenOptions(dir, Options{CheckpointBytes: -1})
		if err == nil {
			s.Close()
			t.Fatal("Open succeeded over a corrupt sealed segment")
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open: %v, want ErrCorrupt", err)
		}
		if want := fmt.Sprintf("segment %d at byte", segs[1]); !strings.Contains(err.Error(), want) {
			t.Errorf("Open: %v, want it to name %q", err, want)
		}
		if after := image(t, dir); !maps.Equal(before, after) {
			t.Fatal("a failed Open changed the store's files")
		}
	})

	for _, tc := range []struct {
		name   string
		header []byte
	}{
		{"tear before a header-only segment", segMagic},
		{"tear before a half-written header", segMagic[:3]},
		{"tear before an empty segment", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, segs := build(t)
			last := segs[len(segs)-1]
			p := segPath(dir, last)
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, data[:len(data)-3], 0o644); err != nil {
				t.Fatal(err)
			}
			next := segPath(dir, last+1)
			if err := os.WriteFile(next, tc.header, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := OpenOptions(dir, Options{CheckpointBytes: -1})
			if err != nil {
				t.Fatalf("a tear at a rotation must truncate: %v", err)
			}
			defer s.Close()
			tb, _ := s.Table("t")
			if n := tb.Len(); n != rows-1 {
				t.Errorf("Len = %d, want %d: only the torn frame goes", n, rows-1)
			}
			if _, err := os.Stat(next); !os.IsNotExist(err) {
				t.Errorf("the segment after the tear survived: %v", err)
			}
		})
	}
}

func TestCorruptSnapshotFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tb, _ := s.CreateTable("t")
	tb.Insert(rec("i", 1))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Truncate the snapshot mid-record: open must fail loudly rather than
	// silently losing data (the snapshot is the only copy post-truncation).
	path := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("open with corrupt snapshot must fail")
	}
}

func TestPropertyRandomOpsRecovery(t *testing.T) {
	// Apply a random op sequence, recover, and check final states match.
	f := func(seed int64) bool {
		dir, err := os.MkdirTemp("", "scdb-prop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		r := rand.New(rand.NewSource(seed))
		s, err := Open(dir)
		if err != nil {
			return false
		}
		tb, _ := s.CreateTable("t")
		var live []RowID
		for i := 0; i < 100; i++ {
			switch {
			case len(live) == 0 || r.Float64() < 0.5:
				id, _ := tb.Insert(rec("i", i))
				live = append(live, id)
			case r.Float64() < 0.5:
				tb.Update(live[r.Intn(len(live))], rec("i", -i))
			default:
				k := r.Intn(len(live))
				tb.Delete(live[k])
				live = append(live[:k], live[k+1:]...)
			}
		}
		want := map[RowID]model.Record{}
		tb.Scan(func(id RowID, rec model.Record) bool { want[id] = rec; return true })
		s.Close()

		s2, err := Open(dir)
		if err != nil {
			return false
		}
		defer s2.Close()
		tb2, ok := s2.Table("t")
		if !ok || tb2.Len() != len(want) {
			return false
		}
		okAll := true
		tb2.Scan(func(id RowID, rec model.Record) bool {
			w, ok := want[id]
			if !ok || !model.Equal(rec["i"], w["i"]) {
				okAll = false
				return false
			}
			return true
		})
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestReservedInserts(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tb, _ := s.CreateTable("t")

	id1 := tb.ReserveID()
	id2 := tb.ReserveID()
	if id1 == id2 {
		t.Fatal("reservations must be distinct")
	}
	csn := s.BeginCommit()
	if err := tb.InsertReservedAt(id2, rec("v", 2), csn); err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertReservedAt(id2, rec("v", 3), csn); err == nil {
		t.Error("double install of a reserved ID must fail")
	}
	s.EndCommit(csn)
	// Interleaved plain inserts never collide with reservations.
	id3, _ := tb.Insert(rec("v", 4))
	if id3 == id1 || id3 == id2 {
		t.Errorf("plain insert reused a reserved ID: %d", id3)
	}
	if got, ok := tb.Get(id2); !ok || !model.Equal(got["v"], model.Int(2)) {
		t.Error("reserved insert unreadable")
	}
	// Reserved inserts recover from the log like any other.
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tb2, _ := s2.Table("t")
	if got, ok := tb2.Get(id2); !ok || !model.Equal(got["v"], model.Int(2)) {
		t.Error("reserved insert lost in recovery")
	}
	// Unused reservation id1 is simply a gap.
	if _, ok := tb2.Get(id1); ok {
		t.Error("unused reservation materialized")
	}
}

func TestLastModified(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")
	if _, ok := tb.LastModified(1); ok {
		t.Error("unknown row has no modification stamp")
	}
	id, _ := tb.Insert(rec("v", 1))
	first, ok := tb.LastModified(id)
	if !ok {
		t.Fatal("stamp missing")
	}
	tb.Update(id, rec("v", 2))
	second, _ := tb.LastModified(id)
	if second <= first {
		t.Errorf("stamps not monotone: %d then %d", first, second)
	}
	tb.Delete(id)
	third, ok := tb.LastModified(id)
	if !ok || third <= second {
		t.Errorf("tombstone stamp = %d %v", third, ok)
	}
}

func TestCheckpointEmptyAndRepeated(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	// Checkpoint of an empty store.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tb, _ := s.CreateTable("t")
	tb.Insert(rec("v", 1))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Second checkpoint immediately after (log empty) must be fine.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tb2, _ := s2.Table("t")
	if tb2.Len() != 1 {
		t.Errorf("rows after repeated checkpoints = %d", tb2.Len())
	}
	// In-memory stores no-op.
	mem, _ := Open("")
	defer mem.Close()
	if err := mem.Checkpoint(); err != nil {
		t.Errorf("in-memory checkpoint: %v", err)
	}
	if err := mem.Sync(); err != nil {
		t.Errorf("in-memory sync: %v", err)
	}
}

func TestCheckpointPreservesDeletes(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tb, _ := s.CreateTable("t")
	id1, _ := tb.Insert(rec("v", 1))
	tb.Insert(rec("v", 2))
	tb.Delete(id1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, _ := Open(dir)
	defer s2.Close()
	tb2, _ := s2.Table("t")
	if tb2.Len() != 1 {
		t.Errorf("len after checkpoint with delete = %d", tb2.Len())
	}
	if _, ok := tb2.Get(id1); ok {
		t.Error("deleted row in snapshot")
	}
}

func TestEnsureTableOnRecoveredStore(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.CreateTable("exists")
	s.Close()
	s2, _ := Open(dir)
	defer s2.Close()
	tb, err := s2.EnsureTable("exists")
	if err != nil || tb == nil {
		t.Fatalf("EnsureTable on recovered: %v", err)
	}
	tb2, err := s2.EnsureTable("fresh")
	if err != nil || tb2 == nil {
		t.Fatalf("EnsureTable new: %v", err)
	}
}

func TestOpenUnwritableDirFails(t *testing.T) {
	if _, err := Open("/proc/definitely/not/writable"); err == nil {
		t.Error("open in unwritable location must fail")
	}
}
