package storage

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"scdb/internal/model"
)

// TestBatchRowsNeverShareAVersion: a batch's rows are carved from one row
// slab and one version slab, so a row whose chain grows must move off the
// slab rather than write its neighbour's version. One batch, then an
// update, a delete, an insert sorted into a chain by an older stamp, and a
// vacuum: every row none of them touched reads the same record at every
// CSN before and after.
func TestBatchRowsNeverShareAVersion(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, err := s.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	// A stamp taken before the batch commits after it: the chain it lands
	// in needs the sorted insert.
	older := s.beginWrite()
	recs := make([]model.Record, 8)
	for i := range recs {
		recs[i] = rec("i", i, "name", "row")
	}
	ids, err := tb.InsertBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	const updated, deleted, sorted = 1, 2, 5
	untouched := []int{0, 3, 4, 6, 7}
	last := s.Now() + 3 // the update and the delete take a stamp each
	reads := func() string {
		var b strings.Builder
		for csn := CSN(0); csn <= last; csn++ {
			for _, i := range untouched {
				r, ok := tb.GetAt(ids[i], csn)
				b.WriteString(string(model.AppendRecord([]byte{byte(csn), byte(i)}, r)))
				if ok {
					b.WriteByte('+')
				}
			}
		}
		return b.String()
	}
	before := reads()

	if err := update(tb, ids[updated], rec("i", 100, "name", "updated")); err != nil {
		t.Fatal(err)
	}
	if err := del(tb, ids[deleted]); err != nil {
		t.Fatal(err)
	}
	part := []batchEntry{{op: opUpdate, rowID: uint64(ids[sorted])}}
	if err := tb.commitPart(older, part, []model.Record{rec("i", 500, "name", "sorted in")}, nil); err != nil {
		t.Fatal(err)
	}
	s.endWrite(older)
	if n := chainLen(tb, ids[sorted]); n != 2 {
		t.Fatalf("the sorted insert left a chain of %d versions, want 2", n)
	}
	if got := reads(); got != before {
		t.Fatal("a write to one row of a batch changed what another row reads")
	}
	tb.Vacuum(s.Now())
	if got := reads(); got != before {
		t.Fatal("a vacuum changed what an untouched row of the batch reads")
	}
	if r, _ := tb.Get(ids[updated]); !model.Equal(r.Get("i"), model.Int(100)) {
		t.Errorf("the updated row reads %v", r)
	}
	if _, ok := tb.Get(ids[deleted]); ok {
		t.Error("the deleted row still reads")
	}
}

// TestSlabKeepsNoDeadRecords: a batch's slab lives while any of its rows
// does, but what it keeps of a row that moved off it or died is the row
// and version structs, not the row's records. One row of a batch of 16 KB
// records stays; the others are updated to small records or deleted, and a
// vacuum drops their history: their big records must be collectable.
func TestSlabKeepsNoDeadRecords(t *testing.T) {
	const n, size = 512, 16 << 10
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, err := s.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	ids := func() []RowID {
		recs := make([]model.Record, n)
		for i := range recs {
			recs[i] = rec("i", i, "blob", strings.Repeat(string(rune('a'+i%26)), size))
		}
		ids, err := tb.InsertBatch(recs)
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, id := range ids[1:] {
		if i%2 == 0 {
			err = update(tb, id, rec("i", i))
		} else {
			err = del(tb, id)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	tb.Vacuum(s.Now())
	runtime.GC()
	runtime.ReadMemStats(&after)
	if r, ok := tb.Get(ids[0]); !ok || len(r) != 2 {
		t.Fatalf("the kept row reads %v", r)
	}
	held := int64(n-1) * size
	if freed := int64(before.HeapAlloc) - int64(after.HeapAlloc); freed < held*3/4 {
		t.Errorf("the vacuum freed %d KB of the %d KB the replaced and deleted records held", freed>>10, held>>10)
	}
}

// TestSnapshotRowCountBoundedByBytes: a snapshot section whose row count
// claims more rows than its bytes can hold fails the open with an error,
// and the open never sizes its row slab by that count.
func TestSnapshotRowCountBoundedByBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := s.CreateTable("t")
	if _, err := tb.InsertBatch([]model.Record{rec("i", 1), rec("i", 2)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Rewrite the one table's section with a row count of 1<<21: 80 MB of
	// rows and versions, where the section holds a few dozen bytes.
	path := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pos := len(snapMagic)
	uvarint := func() uint64 {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			t.Fatal("the snapshot does not parse")
		}
		pos += n
		return v
	}
	uvarint() // csn
	uvarint() // horizon
	if n := uvarint(); n != 1 {
		t.Fatalf("the snapshot holds %d tables, want 1", n)
	}
	pos += int(uvarint()) // the table's name
	head := pos
	secLen := int(uvarint())
	section := data[pos : pos+secLen]
	nextID, n1 := binary.Uvarint(section)
	_, n2 := binary.Uvarint(section[n1:])
	var sec []byte
	sec = binary.AppendUvarint(sec, nextID)
	sec = binary.AppendUvarint(sec, 1<<21)
	sec = append(sec, section[n1+n2:]...)
	var out bytes.Buffer
	out.Write(data[:head])
	out.Write(binary.AppendUvarint(nil, uint64(len(sec))))
	out.Write(sec)
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = Open(dir)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("the open allocated %d MB; the slab was sized by the claimed count", grew>>20)
	}
	if err == nil || !strings.Contains(err.Error(), "row count") {
		t.Errorf("open of a snapshot claiming 1<<21 rows: err = %v, want a corrupt row count", err)
	}
}
