package storage

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"scdb/internal/model"
)

// waitUntil polls cond up to d.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestGroupCommitLeaderCoalesces pins the leader rule. A lone writer leads
// a flush of its own per commit. With the first leader's fsync stalled (the
// test holds fileMu), every other commit frames and waits, and the next
// leader's one flush covers all of them: N commits, 2 fsyncs.
func TestGroupCommitLeaderCoalesces(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), Options{Sync: SyncGroup, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, err := s.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}

	before := s.WALStats()
	for i := 0; i < 100; i++ {
		if _, err := insert(tb, rec("i", i)); err != nil {
			t.Fatal(err)
		}
	}
	after := s.WALStats()
	if n := after.Fsyncs - before.Fsyncs; n != 100 {
		t.Errorf("100 sequential commits cost %d fsyncs, want 100", n)
	}
	if n := after.Commits - before.Commits; n != 100 {
		t.Errorf("100 sequential commits counted %d commits, want 100", n)
	}

	const n = 8
	w := s.wal
	framed := func() (seq uint64, buffered int) {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.seq, w.w.Buffered()
	}
	errs := make(chan error, n)
	commit := func(i int) {
		_, err := insert(tb, rec("c", i))
		errs <- err
	}
	w.fileMu.Lock()
	release := sync.OnceFunc(w.fileMu.Unlock)
	defer release() // before s.Close, which would wait on the stalled leader
	go commit(0)
	// The first commit's frame left the buffer: its leader flushed and now
	// waits for fileMu, so no later frame is in its flush.
	waitUntil(t, 10*time.Second, func() bool {
		seq, buffered := framed()
		return seq == after.Frames+1 && buffered == 0
	}, "the first leader's flush")
	for i := 1; i < n; i++ {
		go commit(i)
	}
	waitUntil(t, 10*time.Second, func() bool {
		seq, _ := framed()
		return seq == after.Frames+n
	}, "every commit's frame")
	release()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	end := s.WALStats()
	if got := end.Fsyncs - after.Fsyncs; got != 2 {
		t.Errorf("%d concurrent commits behind a stalled fsync cost %d fsyncs, want 2", n, got)
	}
	if got := end.Commits - after.Commits; got != n {
		t.Errorf("%d concurrent commits counted %d commits", n, got)
	}
}

// TestCloseIsTheLastFlush: writers commit while Close runs. Close's flush
// covers every frame appended before it, so a commit that returned nil is on
// disk and one that returned an error is not: after a reopen the stored rows
// are exactly those whose commit returned nil. Run under -race; the race
// this guards against need not show on every round.
func TestCloseIsTheLastFlush(t *testing.T) {
	const writers, rounds = 4, 20
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		s, err := OpenOptions(dir, Options{Sync: SyncGroup, CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close() // stops the writers if the round fails early
		tb, err := s.CreateTable("t")
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var acked []int64
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					k := int64(g*1_000_000 + i)
					if _, err := insert(tb, model.Record{"k": model.Int(k)}); err != nil {
						if !errors.Is(err, errWALClosed) {
							t.Error(err)
						}
						return
					}
					mu.Lock()
					acked = append(acked, k)
					mu.Unlock()
				}
			}(g)
		}
		waitUntil(t, 10*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(acked) > round
		}, "commits to return")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()

		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		rt, ok := re.Table("t")
		if !ok {
			t.Fatal("table lost")
		}
		var stored []int64
		rt.Scan(func(_ RowID, r model.Record) bool {
			k, _ := r["k"].AsInt()
			stored = append(stored, k)
			return true
		})
		re.Close()
		slices.Sort(stored)
		slices.Sort(acked)
		if !slices.Equal(stored, acked) {
			t.Fatalf("round %d: reopen holds %d rows, %d commits returned nil: %s", round, len(stored), len(acked), diffKeys(stored, acked))
		}
	}
}

// diffKeys names the keys only one of two sorted lists holds.
func diffKeys(stored, acked []int64) string {
	var extra, lost []int64
	for _, k := range stored {
		if _, ok := slices.BinarySearch(acked, k); !ok {
			extra = append(extra, k)
		}
	}
	for _, k := range acked {
		if _, ok := slices.BinarySearch(stored, k); !ok {
			lost = append(lost, k)
		}
	}
	return fmt.Sprintf("stored but failed %v, returned nil but lost %v", extra, lost)
}
