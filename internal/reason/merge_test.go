package reason

import (
	"fmt"
	"math/rand"
	"testing"

	"scdb/internal/graph"
	"scdb/internal/model"
	"scdb/internal/ontology"
)

// summed is Stats as the reasoner computed it before it kept running totals:
// a walk over every entry it holds. The totals are held to it.
func summed(r *Reasoner) Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var s Stats
	for _, m := range r.inferred {
		s.InferredTypes += len(m)
	}
	for _, w := range r.witnesses {
		s.Witnesses += len(w)
	}
	for _, i := range r.inconsist {
		s.Inconsistencies += len(i)
	}
	return s
}

// checkAgainstFresh holds an incrementally maintained reasoner to a fresh
// full materialization of the same graph, and its running totals to the
// walk over its own entries.
func checkAgainstFresh(t *testing.T, step string, g *graph.Graph, o *ontology.Ontology, inc Stats, r *Reasoner) {
	t.Helper()
	inc.Entities = 0
	fresh := New(g, o).Materialize()
	fresh.Entities = 0
	if inc != fresh {
		t.Fatalf("%s: incremental stats %+v, a fresh Materialize %+v", step, inc, fresh)
	}
	if got := r.Stats(); got != summed(r) {
		t.Fatalf("%s: running totals %+v, the entries sum to %+v", step, got, summed(r))
	}
	for id := range r.inferred {
		if g.Resolve(id) != id {
			t.Fatalf("%s: inferences held under %d, merged into %d", step, id, g.Resolve(id))
		}
	}
}

// TestMergedAwayEntityDropsItsInferences: an arrival that matches two
// curated entities merges into the first, and the first into the second,
// as the pipeline applies matches. The first is then an alias, and the
// inference it held must go with it: a fresh pass counts one Chemical, not
// two.
func TestMergedAwayEntityDropsItsInferences(t *testing.T) {
	g, o := graph.New(), ontology.New()
	o.SubConceptOf("Drug", "Chemical")
	add := func(key string, types ...string) model.EntityID {
		return g.AddEntity(&model.Entity{Key: key, Source: "s", Types: types, Attrs: model.Record{}})
	}
	a1, a2 := add("a1", "Drug"), add("a2", "Drug")
	r := New(g, o)
	if st := r.MaterializeEntities([]model.EntityID{a1, a2}); st.InferredTypes != 2 {
		t.Fatalf("precondition: %d inferred types, want 2", st.InferredTypes)
	}
	b := add("b")
	if err := g.Merge(a1, b); err != nil {
		t.Fatal(err)
	}
	if err := g.Merge(a2, b); err != nil { // b resolves to a1: a1 merges into a2
		t.Fatal(err)
	}
	st := r.MaterializeEntities([]model.EntityID{b, a1, a2})
	if st.InferredTypes != 1 {
		t.Errorf("after the double merge: %d inferred types, want 1", st.InferredTypes)
	}
	checkAgainstFresh(t, "double merge", g, o, st, r)
}

// TestIncrementalStatsUnderRandomMerges drives a random history of
// arrivals, re-deliveries, edges and merges, re-infers only what each step
// touched, and after every step compares the counts with a fresh full
// materialization. The ontology keeps inference independent of the order
// entities are visited in: the existential's filler is asserted only, never
// inferred, so a witness depends on the graph alone.
func TestIncrementalStatsUnderRandomMerges(t *testing.T) {
	o := ontology.New()
	o.SubConceptOf("Approved", "Drug")
	o.SubConceptOf("Drug", "Chemical")
	o.SubConceptOf("Enzyme", "Protein")
	o.SubConceptOf("Tumor", "Disease")
	o.Disjoint("Chemical", "Disease")
	o.AddExistential("Drug", "hasTarget", "Protein")
	o.SubRoleOf("targets", "hasTarget")
	o.Domain("targets", "Drug")
	o.Domain("treats", "Drug")
	o.Range("treats", "Disease")
	types := []string{"Approved", "Drug", "Chemical", "Enzyme", "Protein", "Tumor", "Disease"}
	preds := []string{"targets", "treats", "hasTarget", "mentions"}

	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		r := New(g, o)
		var keys []string
		randTypes := func() []string {
			var ts []string
			for n := rng.Intn(3); n > 0; n-- {
				ts = append(ts, types[rng.Intn(len(types))])
			}
			return ts
		}
		canonical := func() model.EntityID {
			ids := g.EntityIDs()
			return ids[rng.Intn(len(ids))]
		}
		for step := 0; step < 60; step++ {
			var touched []model.EntityID
			op := rng.Intn(10)
			switch {
			case len(keys) < 3 || op < 3: // an arrival
				key := fmt.Sprintf("k%d", len(keys))
				keys = append(keys, key)
				touched = append(touched, g.AddEntity(&model.Entity{Key: key, Source: "s", Types: randTypes(), Attrs: model.Record{}}))
			case op < 4: // a re-delivery with more types
				key := keys[rng.Intn(len(keys))]
				touched = append(touched, g.AddEntity(&model.Entity{Key: key, Source: "s", Types: randTypes(), Attrs: model.Record{}}))
			case op < 7: // an edge
				from, to := canonical(), canonical()
				if err := g.AddEdge(graph.Edge{From: from, Predicate: preds[rng.Intn(len(preds))], To: model.Ref(to), Source: "s", Confidence: 1}); err != nil {
					t.Fatal(err)
				}
				touched = append(touched, from, to)
			default: // a merge
				keep, dup := canonical(), canonical()
				if keep == dup {
					continue
				}
				if err := g.Merge(keep, dup); err != nil {
					t.Fatal(err)
				}
				touched = append(touched, keep, dup)
			}
			st := r.MaterializeEntities(touched)
			checkAgainstFresh(t, fmt.Sprintf("seed %d step %d", seed, step), g, o, st, r)
		}
	}
}
