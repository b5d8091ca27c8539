package curate

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"scdb/internal/datagen"
	"scdb/internal/model"
	"scdb/internal/storage"
)

// chunkedIngest curates the Figure-2 sources at bulk size and then a
// stream of single-entity deliveries with cross-platform duplicates
// through a fresh pipeline over s, at the given chunk size and worker
// count.
func chunkedIngest(t *testing.T, s *storage.Store, chunk, workers int) *Pipeline {
	t.Helper()
	p, _ := pipelineOver(t, s)
	p.chunk, p.workers = chunk, workers
	for _, ds := range append(datagen.LifeSci(1, 40, 30, 20), datagen.Stream(7, 60)...) {
		if err := p.Ingest(NewDelivery(ds), nil); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// ingestState renders what a pass decides and writes: CurationState, the
// resolver's comparison and candidate counts, and every table's rows in
// scan order.
func ingestState(p *Pipeline) string {
	st := p.Stats().ER
	var b strings.Builder
	fmt.Fprintf(&b, "%s\ncomparisons=%d candidates=%d\n", CurationState(p), st.Comparisons, st.Candidates)
	tables := p.store.Tables()
	slices.Sort(tables)
	for _, name := range tables {
		tb, _ := p.store.Table(name)
		fmt.Fprintf(&b, "table %s\n", name)
		tb.Scan(func(_ storage.RowID, rec model.Record) bool {
			fmt.Fprintf(&b, "%x\n", model.AppendRecord(nil, rec))
			return true
		})
	}
	return b.String()
}

// TestIngestStateEquivalence is the chunked-vs-whole differential: a pass
// that writes and relates a delivery three, five or seven records at a
// time, at one scoring worker or four, must leave the same rows, the same
// match log and the same derived counts as one chunk per delivery, and a
// durable store must re-curate to that state on reopen. Replay relates one
// source after another, so where deliveries interleave sources a reopen
// numbers entities, and logs their matches, in another order: it is held
// to the partition and the counts, not to the match log.
func TestIngestStateEquivalence(t *testing.T) {
	s, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := chunkedIngest(t, s, ingestChunk, 1)
	want, wantMatches := ingestState(base), fmt.Sprint(base.resolver.Matches())

	variants := []struct {
		name           string
		chunk, workers int
		sync           storage.SyncPolicy
		durable        bool
	}{
		{"batch-3", 3, 1, storage.SyncNone, false},
		{"batch-7-parallel-4", 7, 4, storage.SyncNone, false},
		{"durable-sync-group-batch-5", 5, 1, storage.SyncGroup, true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			dir := ""
			if v.durable {
				dir = t.TempDir()
			}
			s, err := storage.OpenOptions(dir, storage.Options{Sync: v.sync})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			p := chunkedIngest(t, s, v.chunk, v.workers)
			if got := ingestState(p); got != want {
				t.Fatalf("state diverged from one chunk per delivery\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
			if got := fmt.Sprint(p.resolver.Matches()); got != wantMatches {
				t.Fatalf("match log diverged from one chunk per delivery\n--- got ---\n%s\n--- want ---\n%s", got, wantMatches)
			}
			if !v.durable {
				return
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := storage.OpenOptions(dir, storage.Options{Sync: v.sync})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			p, _ = pipelineOver(t, re)
			if err := p.RebuildFromStore(); err != nil {
				t.Fatal(err)
			}
			if got := ingestState(p); got != want {
				t.Fatalf("reopened state diverged\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}
