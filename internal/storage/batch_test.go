package storage

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"scdb/internal/model"
)

// dumpStore renders the latest committed state of every table, sorted, as
// one comparable string (row IDs plus canonically encoded records).
func dumpStore(t *testing.T, s *Store) string {
	t.Helper()
	out := ""
	for _, name := range s.Tables() {
		tb, _ := s.Table(name)
		out += "table " + name + "\n"
		tb.Scan(func(id RowID, rec model.Record) bool {
			out += fmt.Sprintf("  %d %x\n", id, model.AppendRecord(nil, rec))
			return true
		})
	}
	return out
}

func mkRec(i int) model.Record {
	return model.Record{
		"i": model.Int(int64(i)),
		"s": model.String(fmt.Sprintf("row-%d-payload", i)),
	}
}

// TestInsertBatchMatchesPerRecord: a batch insert must leave the exact
// state (IDs included) that the same records inserted one by one leave,
// in memory and across a durable reopen.
func TestInsertBatchMatchesPerRecord(t *testing.T) {
	recs := make([]model.Record, 50)
	for i := range recs {
		recs[i] = mkRec(i)
	}

	serial, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	st, _ := serial.CreateTable("t")
	for _, rec := range recs {
		if _, err := insert(st, rec); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	batched, err := OpenOptions(dir, Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	bt, _ := batched.CreateTable("t")
	ids, err := bt.InsertBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if id != RowID(i+1) {
			t.Fatalf("batch id[%d] = %d, want %d", i, id, i+1)
		}
	}
	if got, want := dumpStore(t, batched), dumpStore(t, serial); got != want {
		t.Fatalf("batched state differs from per-record state:\n%s\nvs\n%s", got, want)
	}
	if err := batched.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got, want := dumpStore(t, reopened), dumpStore(t, serial); got != want {
		t.Fatalf("recovered batch state differs from per-record state:\n%s\nvs\n%s", got, want)
	}
}

// TestMixedBatchFrameReplays: a batch frame may mix inserts, updates and
// deletes, as a transaction's write set does, and stores written by earlier
// builds hold such frames with an insert and an update of the same row.
// Recovery and the follower must both read one back as its entries in
// order, all at the frame's one stamp.
func TestMixedBatchFrameReplays(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenOptions(dir, Options{Sync: SyncGroup, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := p.CreateTable("t")
	if _, err := tb.InsertBatch([]model.Record{mkRec(1), mkRec(2), mkRec(3)}); err != nil {
		t.Fatal(err)
	}
	csn := p.beginWrite()
	err = p.wal.logBatch("t", csn, []batchEntry{
		{op: opUpdate, rowID: 1, data: model.AppendRecord(nil, mkRec(10))},
		{op: opDelete, rowID: 2},
		{op: opInsert, rowID: 4, data: model.AppendRecord(nil, mkRec(4))},
		{op: opUpdate, rowID: 4, data: model.AppendRecord(nil, mkRec(40))},
	})
	p.endWrite(csn)
	if err != nil {
		t.Fatal(err)
	}

	oracle, _ := Open("")
	ot, _ := oracle.CreateTable("t")
	for i := 1; i <= 3; i++ {
		insert(ot, mkRec(i))
	}
	update(ot, 1, mkRec(10))
	del(ot, 2)
	insert(ot, mkRec(4))
	update(ot, 4, mkRec(40))
	want := dumpStore(t, oracle)

	f, err := OpenOptions(t.TempDir(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shipAll(t, p, f)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for name, s := range map[string]*Store{"recovered": re, "follower": f} {
		if got := dumpStore(t, s); got != want {
			t.Fatalf("%s state differs from the oracle:\n%s\nvs\n%s", name, got, want)
		}
		st, _ := s.Table("t")
		if _, ok := st.GetAt(2, csn-1); !ok {
			t.Errorf("%s: row 2 deleted below the frame's stamp", name)
		}
		if _, ok := st.GetAt(4, csn-1); ok {
			t.Errorf("%s: row 4 visible below the frame's stamp", name)
		}
		if got := chainLen(st, 4); got != 2 {
			t.Errorf("%s: row 4 holds %d versions, want 2", name, got)
		}
	}
}

// TestWALConcurrentWriters is the race-fix regression test: many
// goroutines mutate many tables concurrently (per-record and batched),
// then the log must replay cleanly to the identical state. Before the
// append path was serialized, concurrent writers interleaved frame bytes
// through the shared bufio.Writer and recovery exploded. Run under -race.
func TestWALConcurrentWriters(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncNone, SyncGroup} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenOptions(dir, Options{Sync: pol})
			if err != nil {
				t.Fatal(err)
			}
			const nTables, nWriters, nOps = 4, 8, 40
			tables := make([]*Table, nTables)
			for i := range tables {
				tables[i], err = s.CreateTable(fmt.Sprintf("t%d", i))
				if err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, nWriters)
			for g := 0; g < nWriters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					tb := tables[g%nTables]
					var mine []RowID
					for i := 0; i < nOps; i++ {
						switch {
						case i%10 == 9 && len(mine) > 0:
							if err := del(tb, mine[0]); err != nil {
								errs <- err
								return
							}
							mine = mine[1:]
						case i%5 == 4 && len(mine) > 0:
							if err := update(tb, mine[len(mine)-1], mkRec(g*1000+i)); err != nil {
								errs <- err
								return
							}
						case i%7 == 6:
							batch := []model.Record{mkRec(g*1000 + i), mkRec(g*1000 + i + 500)}
							ids, err := tb.InsertBatch(batch)
							if err != nil {
								errs <- err
								return
							}
							mine = append(mine, ids...)
						default:
							id, err := insert(tb, mkRec(g*1000+i))
							if err != nil {
								errs <- err
								return
							}
							mine = append(mine, id)
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			want := dumpStore(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(dir)
			if err != nil {
				t.Fatalf("recovery after concurrent writes: %v", err)
			}
			defer re.Close()
			if got := dumpStore(t, re); got != want {
				t.Fatalf("recovered state differs from live state under %s", pol)
			}
		})
	}
}

// copyFile copies the WAL of a live (unclosed) store — the crash
// simulation used by the durability tests.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitDurability: once a one-row insert returns under SyncGroup,
// the row must be recoverable without Close — the whole point of waiting for
// the group fsync. The "crash" copies the live log into a fresh directory.
func TestGroupCommitDurability(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, err := s.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	const nWriters, nRows = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < nWriters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < nRows; i++ {
				if _, err := insert(tb, mkRec(g*100+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	crashDir := t.TempDir()
	copyFile(t, segPath(dir, 1), segPath(crashDir, 1))
	re, err := Open(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rt, ok := re.Table("t")
	if !ok {
		t.Fatal("table lost in crash image")
	}
	if got := rt.Len(); got != nWriters*nRows {
		t.Fatalf("recovered %d rows, want %d: group commit acked an undurable insert", got, nWriters*nRows)
	}
}

// TestCrashRecoveryTruncationDifferential is the torn-batch differential:
// ingest batched, truncate the log at arbitrary byte offsets, recover, and
// the surviving state must be byte-identical to a per-record oracle at
// some frame boundary (multi-record frames are atomic: one checksum covers
// the batch, so recovery keeps all of it or none of it).
func TestCrashRecoveryTruncationDifferential(t *testing.T) {
	const batchSize, nBatches = 7, 12
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: after each durable frame, the per-record state it implies.
	oracle, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	ot, _ := oracle.CreateTable("t")
	states := []string{dumpStore(t, oracle)} // state after 0 batches

	next := 0
	for b := 0; b < nBatches; b++ {
		if b%3 == 2 {
			// Mixed round: update and delete rows from earlier batches, then
			// a one-record batch. Each is its own frame, so every frame
			// boundary is an oracle state.
			if err := update(tb, RowID(b), mkRec(9000+b)); err != nil {
				t.Fatal(err)
			}
			if err := update(ot, RowID(b), mkRec(9000+b)); err != nil {
				t.Fatal(err)
			}
			states = append(states, dumpStore(t, oracle))
			if err := del(tb, RowID(b+1)); err != nil {
				t.Fatal(err)
			}
			if err := del(ot, RowID(b+1)); err != nil {
				t.Fatal(err)
			}
			states = append(states, dumpStore(t, oracle))
			if _, err := tb.InsertBatch([]model.Record{mkRec(next)}); err != nil {
				t.Fatal(err)
			}
			if _, err := insert(ot, mkRec(next)); err != nil {
				t.Fatal(err)
			}
			next++
		} else {
			recs := make([]model.Record, batchSize)
			for i := range recs {
				recs[i] = mkRec(next)
				next++
			}
			if _, err := tb.InsertBatch(recs); err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if _, err := insert(ot, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		states = append(states, dumpStore(t, oracle))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	logBytes, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	cuts := []int{0, 1, 11, 12, len(logBytes) - 1, len(logBytes)}
	for i := 0; i < 40; i++ {
		cuts = append(cuts, rng.Intn(len(logBytes)+1))
	}
	for _, cut := range cuts {
		crashDir := t.TempDir()
		if err := os.WriteFile(segPath(crashDir, 1), logBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(crashDir)
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		got := dumpStore(t, re)
		re.Close()
		matched := false
		for _, want := range states {
			if got == want {
				matched = true
				break
			}
		}
		// A cut before the create-table frame leaves an empty store.
		if !matched && got != "" {
			t.Fatalf("cut=%d: recovered state matches no frame-boundary oracle prefix:\n%s", cut, got)
		}
	}
}
