package curate

import (
	"fmt"
	"testing"

	"scdb/internal/datagen"
	"scdb/internal/er"
	"scdb/internal/graph"
	"scdb/internal/ontology"
	"scdb/internal/storage"
)

// iotIngest runs the IoT corpus (two delivery rounds per gateway, so the
// second round re-delivers every key) through a fresh pipeline at the
// given scoring parallelism and returns a byte-comparable signature of
// everything ER decides: pipeline counters (including the resolver's
// Comparisons/Candidates/skip counters), the match log, and the cluster
// structure. skips is the resolver's BlockSkips.
func iotIngest(t *testing.T, mode er.BlockingMode, par int) (sig string, skips int) {
	t.Helper()
	s, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	p, err := NewPipeline(Config{
		Store:    s,
		Graph:    graph.New(),
		Ontology: ontology.New(),
		Blocking: mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Small chunks force several per delivery, so parallel Prepare runs
	// against mid-delivery snapshots.
	p.workers, p.chunk = par, 16
	sets, _ := datagen.IoTSensors(11, 3, 36, 2, 0.25)
	for _, ds := range sets {
		if err := p.Ingest(NewDelivery(ds), nil); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	return fmt.Sprintf("stats=%+v\nmatches=%v\nclusters=%v",
		st, p.Resolver().Matches(), p.Resolver().Clusters()), st.ER.BlockSkips
}

// TestParallelScoringDifferential: candidate generation and pair scoring
// fan out across workers, but corpus answers — merges, match log, cluster
// structure, and every work counter — must be byte-identical to the
// serial pass at any parallelism, for every blocking mode. The corpus
// overflows the block cap, so the token modes also exercise the cut. Run
// with -race, this is also the data-race gate for the parallel relate stage.
func TestParallelScoringDifferential(t *testing.T) {
	for _, mode := range []er.BlockingMode{er.BlockingToken, er.BlockingANN, er.BlockingBoth} {
		t.Run(mode.String(), func(t *testing.T) {
			serial, skips := iotIngest(t, mode, 1)
			t.Logf("%d block skips", skips)
			if mode != er.BlockingANN && skips == 0 {
				t.Errorf("no block overflowed the cap; the corpus does not exercise the cut")
			}
			for _, par := range []int{2, 4, 8} {
				if got, _ := iotIngest(t, mode, par); got != serial {
					t.Errorf("parallelism %d diverges from serial:\n--- serial ---\n%s\n--- par=%d ---\n%s", par, serial, par, got)
				}
			}
		})
	}
}
