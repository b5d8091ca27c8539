package model

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refAppendRecord is AppendRecord as it was before it sorted names on the
// stack: the names go into a fresh slice, sorted by sort.Strings. It is the
// oracle for the record encoding the WAL and snapshots hold.
func refAppendRecord(dst []byte, r Record) []byte {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = AppendValue(dst, r[k])
	}
	return dst
}

// wideRecord has n attributes with names that do not sort in the order
// they are made.
func wideRecord(r *rand.Rand, n int) Record {
	rec := make(Record, n)
	for i := 0; i < n; i++ {
		rec[fmt.Sprintf("%c_attr_%d", 'z'-rune(i%26), i)] = randomValue(r, 2)
	}
	return rec
}

// TestAppendRecordMatchesOracle: the encoding is byte for byte the oracle's
// at every width, on both sides of SmallRecord, and appends after what dst
// already holds.
func TestAppendRecordMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for n := 0; n <= 3*SmallRecord; n++ {
		for trial := 0; trial < 5; trial++ {
			rec := wideRecord(r, n)
			prefix := []byte("prefix")
			got := AppendRecord(append([]byte(nil), prefix...), rec)
			want := refAppendRecord(append([]byte(nil), prefix...), rec)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d attributes: AppendRecord = %x, oracle %x", n, got, want)
			}
		}
	}
}

// TestAppendRecordAllocs: a record of up to SmallRecord attributes encodes
// into a buffer with room for it without allocating; a wider one sorts its
// names in one slice of its own.
func TestAppendRecordAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	buf := make([]byte, 0, 1<<16)
	for _, n := range []int{0, 1, 2, SmallRecord} {
		rec := wideRecord(r, n)
		if a := testing.AllocsPerRun(100, func() { buf = AppendRecord(buf[:0], rec) }); a != 0 {
			t.Errorf("AppendRecord of %d attributes allocates %.0f objects, want 0", n, a)
		}
	}
	rec := wideRecord(r, SmallRecord+1)
	if a := testing.AllocsPerRun(100, func() { buf = AppendRecord(buf[:0], rec) }); a != 1 {
		t.Errorf("AppendRecord of %d attributes allocates %.0f objects, want 1", SmallRecord+1, a)
	}
}
