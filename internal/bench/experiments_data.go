package bench

import (
	"fmt"
	"time"

	"scdb/internal/core"
	"scdb/internal/curate"
	"scdb/internal/datagen"
	"scdb/internal/er"
	"scdb/internal/extract"
	"scdb/internal/model"
)

// lifesciDB opens an in-memory engine and ingests the Figure-2 corpus at
// the given bulk scale.
func lifesciDB(seed int64, nDrugs, nGenes, nDiseases int) (*core.DB, error) {
	db, err := core.Open(core.Options{
		Axioms: datagen.LifeSciAxioms,
		LinkRules: []curate.LinkRule{
			{Predicate: "targets_symbol", EdgePredicate: "targets", TargetAttrs: []string{"symbol", "gene_symbol"}, TargetType: "Gene"},
			{Predicate: "treats_name", EdgePredicate: "treats", TargetAttrs: []string{"disease_name"}},
		},
		Patterns: []extract.Pattern{
			{Trigger: "treats", Predicate: "treats"},
			{Trigger: "targets", Predicate: "targets"},
		},
		// Experiments measure execution, not result caching (E-FS9 covers
		// the cache explicitly).
		DisableMatCache: true,
	})
	if err != nil {
		return nil, err
	}
	for _, ds := range datagen.LifeSci(seed, nDrugs, nGenes, nDiseases) {
		if err := db.Ingest(ds); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// timeIt measures fn's wall time (coarse; the testing.B benchmarks give
// the precise numbers).
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

func ms(dur time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(dur.Microseconds())/1000)
}

// timeBest runs fn n times and returns the fastest run — the standard
// noise-resistant latency measurement.
func timeBest(n int, fn func()) time.Duration {
	best := timeIt(fn)
	for i := 1; i < n; i++ {
		if d := timeIt(fn); d < best {
			best = d
		}
	}
	return best
}

// erClustersF1 scores resolver clusters against DirtyTables ground truth.
// Truth pairs are closed transitively (all records of one real entity form
// one truth cluster) before pairwise comparison.
func erClustersF1(r *er.Resolver, truth []datagen.DirtyPair, keyToID map[string]model.EntityID) (precision, recall, f1 float64) {
	truthUF := er.NewUnionFind()
	for _, p := range truth {
		truthUF.Union(keyToID[p.KeyA], keyToID[p.KeyB])
	}
	truthSet := map[[2]model.EntityID]bool{}
	for _, cl := range truthUF.Clusters(2) {
		for i := 0; i < len(cl); i++ {
			for j := i + 1; j < len(cl); j++ {
				truthSet[pairOf(cl[i], cl[j])] = true
			}
		}
	}
	tp, fp := 0, 0
	for _, cl := range r.Clusters() {
		for i := 0; i < len(cl); i++ {
			for j := i + 1; j < len(cl); j++ {
				if truthSet[pairOf(cl[i], cl[j])] {
					tp++
				} else {
					fp++
				}
			}
		}
	}
	fneg := len(truthSet) - tp
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fneg > 0 {
		recall = float64(tp) / float64(tp+fneg)
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return
}

func pairOf(a, b model.EntityID) [2]model.EntityID {
	if a > b {
		a, b = b, a
	}
	return [2]model.EntityID{a, b}
}
