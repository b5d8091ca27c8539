package storage

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"scdb/internal/model"
)

// replDump renders a store's visible state deterministically: every table,
// every row id, latest record with sorted keys. Byte-equal dumps mean the
// stores answer every read identically.
func replDump(s *Store) string {
	var b strings.Builder
	for _, name := range s.Tables() {
		tb, _ := s.Table(name)
		fmt.Fprintf(&b, "table %s\n", name)
		tb.mu.RLock()
		ids := make([]RowID, 0, len(tb.rows))
		for id := range tb.rows {
			ids = append(ids, id)
		}
		tb.mu.RUnlock()
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			rec, ok := tb.Get(id)
			if !ok {
				fmt.Fprintf(&b, "  %d: <deleted>\n", id)
				continue
			}
			keys := make([]string, 0, len(rec))
			for k := range rec {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintf(&b, "  %d:", id)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%v", k, rec[k])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// shipAll drains the primary's retained log into the follower the way the
// server's shipping loop does: watermark first, then tail until caught up.
func shipAll(t *testing.T, p, f *Store) {
	t.Helper()
	pos, err := p.ReplStartPos()
	if err != nil {
		t.Fatal(err)
	}
	for {
		w := p.StableCSN()
		entries, next, atEnd, err := p.TailWAL(pos, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.ApplyRepl(entries, w); err != nil {
			t.Fatal(err)
		}
		pos = next
		if atEnd {
			return
		}
	}
}

// TestReplTailApplyMirror ships a mixed workload (creates, single-row
// writes, multi-frame batches, updates, deletes, segment rotations) from a
// primary to a follower through the TailWAL/ApplyRepl pair and requires
// the follower to be byte-identical at the same CSN — then crash-restarts
// the follower from its own re-logged WAL and requires identity again.
func TestReplTailApplyMirror(t *testing.T) {
	p, err := OpenOptions(t.TempDir(), Options{SegmentBytes: 4 << 10, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	fdir := t.TempDir()
	f, err := OpenOptions(fdir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}

	drugs, err := p.CreateTable("drugs")
	if err != nil {
		t.Fatal(err)
	}
	var ids []RowID
	for i := 0; i < 400; i++ {
		id, err := insert(drugs, rec("name", fmt.Sprintf("d%03d", i), "i", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 120; i++ {
		if err := update(drugs, ids[i], rec("name", fmt.Sprintf("d%03d", i), "upd", true)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 120; i < 170; i++ {
		if err := del(drugs, ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	ctd, err := p.CreateTable("ctd")
	if err != nil {
		t.Fatal(err)
	}
	var batch []model.Record
	for i := 0; i < 300; i++ {
		batch = append(batch, rec("chemical", fmt.Sprintf("c%03d", i), "score", float64(i)/7))
	}
	if _, err := ctd.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}

	shipAll(t, p, f)
	if got, want := f.Now(), p.Now(); got != want {
		t.Fatalf("follower clock = %d, primary = %d", got, want)
	}
	if got, want := replDump(f), replDump(p); got != want {
		t.Fatalf("follower state diverged from primary:\n--- follower ---\n%s--- primary ---\n%s", got, want)
	}

	// The follower re-logged every frame at its recorded stamp: a restart
	// from its own directory must reproduce the same state and clock.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := OpenOptions(fdir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if got, want := f2.Now(), p.Now(); got != want {
		t.Fatalf("recovered follower clock = %d, primary = %d", got, want)
	}
	if got, want := replDump(f2), replDump(p); got != want {
		t.Fatalf("recovered follower diverged:\n--- follower ---\n%s--- primary ---\n%s", got, want)
	}
}

// TestReplIncrementalShipping interleaves shipping with ongoing writes:
// each wave tails only the new frames, and after every wave the follower
// matches the primary's stable prefix.
func TestReplIncrementalShipping(t *testing.T) {
	p, err := OpenOptions(t.TempDir(), Options{SegmentBytes: 2 << 10, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f, err := OpenOptions(t.TempDir(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	tb, err := p.CreateTable("events")
	if err != nil {
		t.Fatal(err)
	}
	pos, err := p.ReplStartPos()
	if err != nil {
		t.Fatal(err)
	}
	for wave := 0; wave < 5; wave++ {
		for i := 0; i < 100; i++ {
			if _, err := insert(tb, rec("wave", wave, "n", i)); err != nil {
				t.Fatal(err)
			}
		}
		for {
			w := p.StableCSN()
			entries, next, atEnd, err := p.TailWAL(pos, 8<<10)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.ApplyRepl(entries, w); err != nil {
				t.Fatal(err)
			}
			pos = next
			if atEnd {
				break
			}
		}
		if got, want := f.Now(), p.Now(); got != want {
			t.Fatalf("wave %d: follower clock = %d, primary = %d", wave, got, want)
		}
		if replDump(f) != replDump(p) {
			t.Fatalf("wave %d: follower state diverged", wave)
		}
	}
}

// TestReplTrimAndPins covers the checkpoint interaction: a checkpoint trims
// segments out from under an unpinned reader (ErrWALTrimmed +
// ReplNeedsSnapshot), while a pinned reader keeps streaming the sealed
// segments a checkpoint would otherwise delete.
func TestReplTrimAndPins(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), Options{SegmentBytes: 1 << 10, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, err := s.CreateTable("x")
	if err != nil {
		t.Fatal(err)
	}
	fill := func() {
		for i := 0; i < 200; i++ {
			if _, err := insert(tb, rec("n", i, "pad", strings.Repeat("p", 32))); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	if need, err := s.ReplNeedsSnapshot(0); err != nil || need {
		t.Fatalf("fresh log: needs snapshot = %v, err = %v", need, err)
	}
	start, err := s.ReplStartPos()
	if err != nil {
		t.Fatal(err)
	}

	// A pin at the start position survives a checkpoint: the sealed
	// segments stay readable even though the snapshot covers them.
	pin := s.PinSegments(start.Seg)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fill()
	if _, _, _, err := s.TailWAL(start, 4<<10); err != nil {
		t.Fatalf("pinned segment trimmed: %v", err)
	}

	// Releasing the pin lets the next checkpoint delete the prefix; the
	// old position is then trimmed and a stale follower needs a snapshot.
	pin.Release()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.TailWAL(start, 4<<10); !errors.Is(err, ErrWALTrimmed) {
		t.Fatalf("TailWAL after trim = %v, want ErrWALTrimmed", err)
	}
	if need, err := s.ReplNeedsSnapshot(0); err != nil || !need {
		t.Fatalf("stale follower: needs snapshot = %v, err = %v", need, err)
	}
}

// TestTailWALCorruptSealedFrame: a flipped byte in the middle of a sealed
// segment makes the tail read fail with ErrCorrupt naming the segment and
// the frame's byte offset, both when the read is cut at maxBytes (where it
// used to return no entries, the same position and a nil error forever) and
// when the whole segment fits in one read.
func TestTailWALCorruptSealedFrame(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{SegmentBytes: 8 << 10, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, err := s.CreateTable("x")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, err := insert(tb, rec("n", i, "pad", strings.Repeat("p", 32))); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("log has %d segments, want a sealed one past the second", len(segs))
	}
	bad := segs[2]
	data, err := os.ReadFile(segPath(dir, bad))
	if err != nil {
		t.Fatal(err)
	}
	flip := int64(len(data) / 2)
	data[flip] ^= 0xff
	if err := os.WriteFile(segPath(dir, bad), data, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, maxBytes := range []int64{256, 1 << 20} {
		pos, err := s.ReplStartPos()
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, next, atEnd, err := s.TailWAL(pos, maxBytes)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("maxBytes %d: TailWAL at %+v = %v, want ErrCorrupt", maxBytes, pos, err)
				}
				if pos.Seg != bad || pos.Off > flip {
					t.Fatalf("maxBytes %d: failed at %+v, the flipped byte is segment %d byte %d", maxBytes, pos, bad, flip)
				}
				if want := fmt.Sprintf("segment %d at byte %d", pos.Seg, pos.Off); !strings.Contains(err.Error(), want) {
					t.Fatalf("maxBytes %d: error %q does not name %q", maxBytes, err, want)
				}
				break
			}
			if atEnd {
				t.Fatalf("maxBytes %d: read past the corrupt frame to the log's end", maxBytes)
			}
			if next == pos {
				t.Fatalf("maxBytes %d: TailWAL stalled at %+v with a nil error", maxBytes, pos)
			}
			pos = next
		}
	}
}

// TestFollowerCommitsABatchOnce: a follower re-logs a shipped read of 51
// frames (a table and 50 one-row batches) and commits them once, so the
// apply costs one fsync under SyncGroup, where it cost one a frame; a
// reopen of the follower holds every row.
func TestFollowerCommitsABatchOnce(t *testing.T) {
	p, err := OpenOptions(t.TempDir(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tb, err := p.CreateTable("probe")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := insert(tb, rec("i", i)); err != nil {
			t.Fatal(err)
		}
	}
	pos, err := p.ReplStartPos()
	if err != nil {
		t.Fatal(err)
	}
	w := p.StableCSN()
	entries, _, _, err := p.TailWAL(pos, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 51 {
		t.Fatalf("tail read %d frames, want 51", len(entries))
	}
	dir := t.TempDir()
	f, err := OpenOptions(dir, Options{Sync: SyncGroup, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	before := f.WALStats().Fsyncs
	if err := f.ApplyRepl(append([]ReplEntry(nil), entries...), w); err != nil {
		t.Fatal(err)
	}
	if n := f.WALStats().Fsyncs - before; n != 1 {
		t.Errorf("applying 51 frames cost %d fsyncs, want 1", n)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenOptions(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := replDump(re), replDump(p); got != want {
		t.Errorf("reopened follower diverged:\n%s\nwant\n%s", got, want)
	}
	re.Close()
}
