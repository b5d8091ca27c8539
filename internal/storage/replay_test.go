package storage

import (
	"testing"

	"scdb/internal/model"
)

// TestReplayInStampOrder: a writer allocates its commit stamp before the
// table latch and appends its frame after releasing it, so a later mutation
// of the row it just inserted can reach the log ahead of the insert. Each
// case builds that log by running a one-row insert's steps split at the
// latch release, with the update or delete in between. Reopening the directory and shipping
// the same log through TailWAL → ApplyRepl to a fresh store must both land
// on the live state, byte for byte.
func TestReplayInStampOrder(t *testing.T) {
	cases := []struct {
		name  string
		early func(tb *Table, id RowID) error
	}{
		{"update", func(tb *Table, id RowID) error { return update(tb, id, rec("v", 2)) }},
		{"delete", func(tb *Table, id RowID) error { return del(tb, id) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			p, err := OpenOptions(dir, Options{CheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			tb, err := p.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}

			// A one-row insert, split at the latch release.
			r := rec("v", 1)
			csn := p.beginWrite()
			tb.mu.Lock()
			tb.nextID++
			id := RowID(tb.nextID)
			tb.rows[id] = &row{versions: []version{{rec: r, from: csn}}}
			tb.live++
			tb.noteWriteLocked(id, r, true)
			tb.mu.Unlock()
			if err := tc.early(tb, id); err != nil {
				t.Fatal(err)
			}
			if err := p.wal.log(opInsert, csn, tb.name, uint64(id), model.AppendRecord(nil, r)); err != nil {
				t.Fatal(err)
			}
			p.endWrite(csn)
			if _, err := insert(tb, rec("v", 3)); err != nil {
				t.Fatal(err)
			}
			live := replDump(p)

			f, err := OpenOptions(t.TempDir(), Options{CheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			shipAll(t, p, f)
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenOptions(dir, Options{CheckpointBytes: -1})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			if got := replDump(re); got != live {
				t.Fatalf("recovered state differs from live state:\n%s\nvs\n%s", got, live)
			}
			if got := replDump(f); got != live {
				t.Fatalf("follower state differs from live state:\n%s\nvs\n%s", got, live)
			}
		})
	}
}
