package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scdb/internal/model"
)

// TestIngestDuringCheckpoint is the lost-write regression test: writers
// hammer the store while checkpoints run concurrently, and the reopened
// state must be byte-identical to the live state. The old single-file
// Checkpoint truncated the log after its snapshot, silently dropping any
// commit that raced between the snapshot read and the Truncate(0). Run
// under -race.
func TestIngestDuringCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so checkpoints overlap rotations too.
	s, err := OpenOptions(dir, Options{Sync: SyncGroup, SegmentBytes: 4096, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	const nWriters, nOps = 6, 120
	tables := make([]*Table, 3)
	for i := range tables {
		tables[i], err = s.CreateTable(string(rune('a' + i)))
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
			tb := tables[g%len(tables)]
			var mine []RowID
			for i := 0; i < nOps; i++ {
				switch {
				case i%11 == 10 && len(mine) > 0:
					if err := tb.Delete(mine[0]); err != nil {
						errs <- err
						return
					}
					mine = mine[1:]
				case i%5 == 4 && len(mine) > 0:
					if err := tb.Update(mine[len(mine)-1], mkRec(g*10000+i)); err != nil {
						errs <- err
						return
					}
				case i%7 == 6:
					ids, err := tb.InsertBatch([]model.Record{mkRec(g*10000 + i), mkRec(g*10000 + i + 5000)})
					if err != nil {
						errs <- err
						return
					}
					mine = append(mine, ids...)
				default:
					id, err := tb.Insert(mkRec(g*10000 + i))
					if err != nil {
						errs <- err
						return
					}
					mine = append(mine, id)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	ckpts := 0
	for {
		if err := s.Checkpoint(); err != nil {
			t.Error(err)
			break
		}
		ckpts++
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	if ckpts == 0 {
		t.Fatal("no checkpoint ran")
	}
	want := dumpStore(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery after concurrent checkpoints: %v", err)
	}
	defer re.Close()
	if got := dumpStore(t, re); got != want {
		t.Fatalf("recovered state differs from live state:\n%s\nvs\n%s", got, want)
	}
}

// TestSegmentRotationAndRetention: appends rotate the log into multiple
// segment files, a checkpoint deletes the sealed ones below its horizon,
// and the store survives reopen at every stage.
func TestSegmentRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{Sync: SyncAlways, SegmentBytes: 256, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := s.CreateTable("t")
	for i := 0; i < 100; i++ {
		if _, err := tb.Insert(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.WALStats()
	if st.Segments < 3 || st.SegmentIndex < 3 {
		t.Fatalf("expected several segments, got Segments=%d SegmentIndex=%d", st.Segments, st.SegmentIndex)
	}
	if segs, _ := listSegments(dir); len(segs) != st.Segments {
		t.Fatalf("on-disk segments %d != stats %d", len(segs), st.Segments)
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = s.WALStats()
	if st.Checkpoints != 1 || st.CheckpointCSN == 0 {
		t.Fatalf("checkpoint stats: %+v", st)
	}
	if st.CheckpointReclaimed == 0 {
		t.Fatal("checkpoint reclaimed no sealed segments")
	}
	segs, _ := listSegments(dir)
	if len(segs) != 1 || segs[0] != st.SegmentIndex {
		t.Fatalf("retention kept %v, want only active segment %d", segs, st.SegmentIndex)
	}

	for i := 100; i < 150; i++ {
		if _, err := tb.Insert(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpStore(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpStore(t, re); got != want {
		t.Fatalf("recovered state differs:\n%s\nvs\n%s", got, want)
	}
	if re.WALStats().RecoveryTime <= 0 {
		t.Error("RecoveryTime not recorded")
	}
}

// TestAutoCheckpointTriggers: crossing CheckpointBytes makes the
// background checkpointer run without any manual call.
func TestAutoCheckpointTriggers(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{Sync: SyncAlways, CheckpointBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := s.CreateTable("t")
	for i := 0; i < 2000 && s.WALStats().Checkpoints == 0; i++ {
		if _, err := tb.Insert(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpointer is asynchronous: give it a moment after the kick.
	for i := 0; i < 400 && s.WALStats().Checkpoints == 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if s.WALStats().Checkpoints == 0 {
		t.Fatal("auto checkpoint never ran")
	}
	want := dumpStore(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpStore(t, re); got != want {
		t.Fatal("recovered state differs after auto checkpoint")
	}
}

// TestRecoverParallelismEquivalence: recovered state is identical to the
// live state whether replay and rebuild run on one worker or fan out.
func TestRecoverParallelismEquivalence(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{Sync: SyncAlways, SegmentBytes: 512, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < 4; ti++ {
		tb, err := s.CreateTable(string(rune('a' + ti)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			id, _ := tb.Insert(mkRec(ti*1000 + i))
			if i%5 == 4 {
				tb.Update(id, mkRec(ti*1000+i+100))
			}
			if i%9 == 8 {
				tb.Delete(id)
			}
		}
		if ti == 1 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := dumpStore(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 8} {
		re, err := openStore(dir, Options{CheckpointBytes: -1}, par)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		got := dumpStore(t, re)
		re.Close()
		if got != want {
			t.Fatalf("par=%d: recovered state differs from live state:\n%s\nvs\n%s", par, got, want)
		}
	}
}

// TestCheckpointSegmentCrashDifferential extends the truncation
// differential across checkpoint and rotation boundaries: with small
// segments and two mid-run checkpoints, cut any surviving segment at
// arbitrary offsets (later segments left in place), and recovery must land
// on a whole-batch oracle state. Also covers a crash mid-rotation (partial
// or header-only new segment) and a crash mid-snapshot (stale .tmp).
func TestCheckpointSegmentCrashDifferential(t *testing.T) {
	const batchSize, nBatches = 6, 12
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{Sync: SyncAlways, SegmentBytes: 512, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := s.CreateTable("t")
	oracle, _ := Open("")
	ot, _ := oracle.CreateTable("t")
	states := []string{dumpStore(t, oracle)}
	next := 0
	for b := 0; b < nBatches; b++ {
		recs := make([]model.Record, batchSize)
		for i := range recs {
			recs[i] = mkRec(next)
			next++
		}
		if _, err := tb.InsertBatch(recs); err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if _, err := ot.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
		states = append(states, dumpStore(t, oracle))
		if b == 3 || b == 7 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Capture the post-close image: snapshot + surviving segments.
	files := map[string][]byte{}
	if data, err := os.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		files[snapshotName] = data
	} else {
		t.Fatalf("no snapshot after checkpoints: %v", err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("want multiple surviving segments, got %v", segs)
	}
	for _, idx := range segs {
		data, err := os.ReadFile(segPath(dir, idx))
		if err != nil {
			t.Fatal(err)
		}
		files[segName(idx)] = data
	}
	mkCrash := func(mutate func(map[string][]byte)) string {
		crash := t.TempDir()
		img := map[string][]byte{}
		for name, data := range files {
			img[name] = data
		}
		if mutate != nil {
			mutate(img)
		}
		for name, data := range img {
			if err := os.WriteFile(filepath.Join(crash, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return crash
	}
	check := func(label string, crash string) {
		t.Helper()
		re, err := Open(crash)
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", label, err)
		}
		got := dumpStore(t, re)
		re.Close()
		for _, want := range states {
			if got == want {
				return
			}
		}
		t.Fatalf("%s: recovered state matches no whole-batch oracle prefix:\n%s", label, got)
	}

	rng := rand.New(rand.NewSource(7))
	for si, seg := range segs {
		data := files[segName(seg)]
		cuts := []int{0, 1, 7, 8, 9, len(data) - 1, len(data)}
		for i := 0; i < 10; i++ {
			cuts = append(cuts, rng.Intn(len(data)+1))
		}
		for _, cut := range cuts {
			if cut < 0 || cut > len(data) {
				continue
			}
			// A crash tears only the active segment, so a cut in segment
			// i means segments past i were never created.
			crash := mkCrash(func(img map[string][]byte) {
				img[segName(seg)] = data[:cut]
				for _, later := range segs[si+1:] {
					delete(img, segName(later))
				}
			})
			check(segName(seg)[len(segPrefix):]+"-cut", crash)
		}
	}

	// A torn tail in a non-final segment is filesystem damage rather than a
	// crash: rotation fsynced the segment before the next one took a frame.
	// Recovery must fail with ErrCorrupt and leave every file as it was.
	if len(segs) > 1 {
		first := segs[0]
		data := files[segName(first)]
		crash := mkCrash(func(img map[string][]byte) {
			img[segName(first)] = data[:len(data)-1]
		})
		if re, err := Open(crash); !errors.Is(err, ErrCorrupt) {
			if re != nil {
				re.Close()
			}
			t.Fatalf("mid-segment-tear: Open = %v, want ErrCorrupt", err)
		}
		for _, idx := range segs {
			got, err := os.ReadFile(filepath.Join(crash, segName(idx)))
			want := files[segName(idx)]
			if idx == first {
				want = data[:len(data)-1]
			}
			if err != nil || string(got) != string(want) {
				t.Fatalf("mid-segment-tear: a failed Open changed %s (%v)", segName(idx), err)
			}
		}
	}

	// Crash mid-rotation: the next segment exists with a partial or
	// complete header but no frames. Recovery must keep the full state.
	last := segs[len(segs)-1]
	for _, tail := range [][]byte{segMagic[:3], segMagic} {
		crash := mkCrash(func(img map[string][]byte) {
			img[segName(last+1)] = append([]byte(nil), tail...)
		})
		re, err := Open(crash)
		if err != nil {
			t.Fatalf("torn rotation: %v", err)
		}
		if got := dumpStore(t, re); got != states[nBatches] {
			t.Fatalf("torn rotation lost data:\n%s", got)
		}
		re.Close()
	}

	// Crash mid-snapshot: a stale .tmp must be ignored and removed.
	crash := mkCrash(func(img map[string][]byte) {
		img[snapshotName+".tmp"] = []byte("partial snapshot garbage")
	})
	re, err := Open(crash)
	if err != nil {
		t.Fatalf("stale snapshot tmp: %v", err)
	}
	if got := dumpStore(t, re); got != states[nBatches] {
		t.Fatalf("stale snapshot tmp corrupted recovery:\n%s", got)
	}
	re.Close()
	if _, err := os.Stat(filepath.Join(crash, snapshotName+".tmp")); !os.IsNotExist(err) {
		t.Error("stale snapshot .tmp not removed at open")
	}
}

// TestUnsupportedFormats: a store holding a file in a format this build
// cannot read — a pre-segmentation scdb.log, a segment without the SCWAL002
// header, a snapshot without SCSNAP02 — fails to open with
// ErrUnsupportedFormat naming the file, and the failed open leaves the
// directory byte-for-byte as it found it. Each directory also carries a
// stale snapshot .tmp and a torn segment tail, which a successful open
// deletes and truncates, so an open that got as far as repairing before
// rejecting would show.
func TestUnsupportedFormats(t *testing.T) {
	cases := []struct {
		name, file string
		content    []byte
	}{
		{"old log", oldLogName, []byte("frames without commit stamps")},
		{"segment without magic", segName(2), []byte("\x00\x00\x00\x04 not a SCWAL002 segment")},
		{"snapshot without magic", snapshotName, binary.AppendUvarint(nil, 0)},
	}
	readDir := func(dir string) map[string]string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		return files
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenOptions(dir, Options{Sync: SyncAlways, CheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			tb, _ := s.CreateTable("t")
			for i := 0; i < 3; i++ {
				if _, err := tb.Insert(mkRec(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			seg, err := os.OpenFile(segPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			seg.Write([]byte{0, 0, 0, 9, 1, 2, 3}) // torn frame header
			seg.Close()
			for name, content := range map[string][]byte{
				snapshotName + ".tmp": []byte("partial snapshot"),
				tc.file:               tc.content,
			} {
				if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := readDir(dir)

			_, err = OpenOptions(dir, Options{Sync: SyncAlways, CheckpointBytes: -1})
			if !errors.Is(err, ErrUnsupportedFormat) {
				t.Fatalf("open = %v, want ErrUnsupportedFormat", err)
			}
			if !strings.Contains(err.Error(), tc.file) {
				t.Errorf("error %q does not name %s", err, tc.file)
			}
			if after := readDir(dir); !reflect.DeepEqual(after, before) {
				t.Errorf("failed open changed the directory:\nbefore %q\nafter  %q", before, after)
			}
		})
	}
}

// TestIndexCatalogPersisted: the self-curation state — index catalog, hit
// counters, access counters — survives checkpoint + restart, so hot
// indexes don't have to be re-learned from cold counters.
func TestIndexCatalogPersisted(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{Sync: SyncAlways, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := s.CreateTable("t")
	for i := 0; i < 100; i++ {
		rec := model.Record{"i": model.Int(int64(i)), "j": model.Int(int64(i % 10))}
		if _, err := tb.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreateIndex("i"); err != nil {
		t.Fatal(err)
	}
	scan := func(tb *Table, attr string, n int) {
		for k := 0; k < n; k++ {
			preds := []ZonePred{{Attr: attr, Op: "=", Val: model.Int(int64(k % 10))}}
			scanInfo(tb, s.Now(), preds, ScanOptions{})
		}
	}
	scan(tb, "i", 3)
	before := tb.IndexStats()
	if len(before) != 1 || before[0].Hits == 0 {
		t.Fatalf("index stats before restart: %+v", before)
	}
	// Two accesses on "j": below the auto-index threshold, but the counter
	// must persist so later traffic crosses it after a restart.
	scan(tb, "j", 2)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenOptions(dir, Options{Sync: SyncAlways, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rt, _ := re.Table("t")
	after := rt.IndexStats()
	if len(after) != 1 {
		t.Fatalf("index catalog lost across restart: %+v", after)
	}
	if after[0].Attr != "i" || after[0].Kind != "sorted" || after[0].Auto {
		t.Fatalf("restored index wrong: %+v", after[0])
	}
	if after[0].Hits != before[0].Hits {
		t.Errorf("restored hits = %d, want %d", after[0].Hits, before[0].Hits)
	}
	if after[0].Entries == 0 {
		t.Error("restored index is empty")
	}
	// The persisted access counters plus two more scans cross the
	// auto-index threshold (4); a fresh store would still be at 2.
	scan(rt, "j", 2)
	found := false
	for _, st := range rt.IndexStats() {
		if st.Attr == "j" && st.Auto {
			found = true
		}
	}
	if !found {
		t.Errorf("persisted access counters did not seed auto-indexing: %+v", rt.IndexStats())
	}
}

// TestTwoKindCatalogRestores: testdata/indexkinds is a store written by the
// code before every index became one sorted run, when an index was a hash
// index or a sorted one and access touches were counted as equality and
// range apart. Its snapshot's table t holds an auto hash index on h, an auto
// sorted index on r and a pinned hash index on p (h and p hold NaN and list
// values too, p strings and ints), and access counts of one equality and
// one range touch on q; 30 rows follow the checkpoint in the log. All three
// indexes must come back with their pins and hit counts, each answering as
// a scan without indexes does, and q's two counters must count as one.
func TestTwoKindCatalogRestores(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "indexkinds")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		copyFile(t, filepath.Join(src, e.Name()), filepath.Join(dir, e.Name()))
	}
	s, err := OpenOptions(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, ok := s.Table("t")
	if !ok {
		t.Fatal("table t not restored")
	}
	want := []IndexStat{
		{Table: "t", Attr: "h", Kind: "sorted", Entries: 230, Hits: 2, Auto: true},
		{Table: "t", Attr: "p", Kind: "sorted", Entries: 230, Hits: 3, Auto: false},
		{Table: "t", Attr: "r", Kind: "sorted", Entries: 226, Hits: 3, Auto: true},
	}
	if got := tb.IndexStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored catalog:\n got %+v\nwant %+v", got, want)
	}

	now := s.Now()
	nan := model.Float(math.NaN())
	for _, p := range []ZonePred{
		{Attr: "h", Op: "=", Val: model.Int(4)},
		{Attr: "h", Op: "=", Val: nan},
		{Attr: "h", Op: "in", Vals: []model.Value{model.Int(1), nan, model.List(model.Int(1), model.String("x"))}},
		{Attr: "h", Op: ">=", Val: model.Int(17)},
		{Attr: "p", Op: "=", Val: model.String("v07")},
		{Attr: "p", Op: "in", Vals: []model.Value{model.String("v01"), model.Int(7)}},
		{Attr: "p", Op: "<", Val: model.String("v03")},
		{Attr: "r", Op: "<", Val: model.Float(20)},
		{Attr: "r", Op: ">", Val: model.Int(100)},
		{Attr: "r", Op: "=", Val: nan},
	} {
		label := fmt.Sprintf("%s %s %v %v", p.Attr, p.Op, p.Val, p.Vals)
		c := tb.ScanWhere(now, []ZonePred{p}, ScanOptions{NoAuto: true})
		recs, _ := drain(&c)
		if c.Info().Index != "t."+p.Attr {
			t.Fatalf("%s: scan used index %q, want t.%s", label, c.Info().Index, p.Attr)
		}
		plain := answerVia(tb, now, p, ScanOptions{NoAuto: true, NoIndex: true})
		if len(plain) == 0 {
			t.Fatalf("%s: matches no row; the predicate tests nothing", label)
		}
		sameRecords(t, label, matching(p, recs), plain)
	}

	// One equality and one range touch were persisted for q: two more
	// touches reach the threshold of four.
	q := ZonePred{Attr: "q", Op: "=", Val: model.Int(3)}
	scanInfo(tb, now, []ZonePred{q}, ScanOptions{})
	if info := scanInfo(tb, now, []ZonePred{q}, ScanOptions{}); info.Index != "t.q" {
		t.Fatalf("q's persisted touches did not count: Index = %q, stats %+v", info.Index, tb.IndexStats())
	}
}

// BenchmarkRecovery measures Open() on a prebuilt directory: full-log
// replay against checkpoint-bounded replay, each at 1, 2 and 8 workers. The
// checkpointed open must be O(data since the last checkpoint), not O(all
// data ever written).
func BenchmarkRecovery(b *testing.B) {
	build := func(b *testing.B, rows int, ckpt bool, tail int) string {
		b.Helper()
		dir := b.TempDir()
		s, err := OpenOptions(dir, Options{CheckpointBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		for ti := 0; ti < 4; ti++ {
			tb, _ := s.CreateTable(string(rune('a' + ti)))
			recs := make([]model.Record, 100)
			for done := 0; done < rows/4; done += len(recs) {
				for i := range recs {
					recs[i] = mkRec(ti*rows + done + i)
				}
				if _, err := tb.InsertBatch(recs); err != nil {
					b.Fatal(err)
				}
			}
			// Update churn: the log carries every version, a checkpoint
			// snapshot only the live ones — the asymmetry checkpoints exist
			// to exploit.
			for round := 0; round < 2; round++ {
				for id := 1; id <= rows/4; id++ {
					if err := tb.Update(RowID(id), mkRec(ti*rows+round)); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		if ckpt {
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			tb, _ := s.Table("a")
			for i := 0; i < tail; i++ {
				if _, err := tb.Insert(mkRec(rows + i)); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	open := func(b *testing.B, dir string, par int) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := openStore(dir, Options{CheckpointBytes: -1}, par)
			if err != nil {
				b.Fatal(err)
			}
			s.Close()
		}
	}
	// Worker counts are explicit (not one per CPU) so the fan-out engages
	// even on single-CPU hosts; the speedup scales with real cores.
	// SCDB_RECOVERY_ROWS overrides the 20k default (CI smoke runs set it
	// small).
	rows := 20000
	if s := os.Getenv("SCDB_RECOVERY_ROWS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			rows = n
		}
	}
	for _, mode := range []struct {
		name string
		ckpt bool
		tail int
	}{{"wal-only", false, 0}, {"checkpointed", true, 100}} {
		b.Run(mode.name, func(b *testing.B) {
			dir := build(b, rows, mode.ckpt, mode.tail)
			for _, par := range []int{1, 2, 8} {
				b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) { open(b, dir, par) })
			}
		})
	}
}
