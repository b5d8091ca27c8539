package curate

import (
	"fmt"
	"testing"

	"scdb/internal/catalog"
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
// structure.
func iotIngest(t *testing.T, mode er.BlockingMode, par int) string {
	t.Helper()
	s, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	cat, err := catalog.Open(s)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(Config{
		Store:    s,
		Catalog:  cat,
		Graph:    graph.New(),
		Ontology: ontology.New(),
		ERConfig: er.Config{Blocking: mode, MaxBlock: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Small chunks force several per delivery, so parallel Prepare runs
	// against mid-delivery snapshots.
	p.workers, p.chunk = par, 16
	sets, _ := datagen.IoTSensors(11, 3, 36, 2, 0.25)
	for _, ds := range sets {
		if err := p.Ingest(ds, nil); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("stats=%+v\nmatches=%v\nclusters=%v",
		p.Stats(), p.Resolver().Matches(), p.Resolver().Clusters())
}

// TestParallelScoringDifferential: candidate generation and pair scoring
// fan out across workers, but corpus answers — merges, match log, cluster
// structure, and every work counter — must be byte-identical to the
// serial pass at any parallelism, for every blocking mode. Run with
// -race, this is also the data-race gate for the parallel relate stage.
func TestParallelScoringDifferential(t *testing.T) {
	for _, mode := range []er.BlockingMode{er.BlockingToken, er.BlockingANN, er.BlockingBoth} {
		t.Run(mode.String(), func(t *testing.T) {
			serial := iotIngest(t, mode, 1)
			for _, par := range []int{2, 4, 8} {
				if got := iotIngest(t, mode, par); got != serial {
					t.Errorf("parallelism %d diverges from serial:\n--- serial ---\n%s\n--- par=%d ---\n%s", par, serial, par, got)
				}
			}
		})
	}
}
