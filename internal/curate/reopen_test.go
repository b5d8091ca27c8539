package curate_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"scdb/internal/core"
	"scdb/internal/curate"
	"scdb/internal/datagen"
	"scdb/internal/extract"
	"scdb/internal/graph"
	"scdb/internal/model"
)

var (
	reopenRules = []curate.LinkRule{
		{Predicate: "targets_symbol", EdgePredicate: "targets", TargetAttrs: []string{"symbol"}, TargetType: "Gene"},
	}
	reopenPatterns = []extract.Pattern{
		{Trigger: "treats", Predicate: "treats"},
		{Trigger: "targets", Predicate: "targets"},
	}
	// Drug names repeat across sources, so ER merges across them.
	reopenDrugs = []string{"aspirin", "warfarin", "ibuprofen", "methotrexate", "heparin"}
	// GENX names no gene: a link to it stays pending.
	reopenSymbols = []string{"DHFR", "PTGS2", "TP53", "GENX"}
	reopenGenes   = map[string]string{"DHFR": "dihydrofolate reductase", "PTGS2": "cyclooxygenase", "TP53": "tumor antigen"}
)

// reopenDeliveries draws a delivery sequence: several sources, each sent in
// one to three consecutive deliveries whose keys re-deliver earlier ones of
// the source, one source carrying the genes the others' literal links and
// texts name. Entity links, literal links and texts ride on a source's last
// delivery, and a re-delivered key carries what it first carried (see
// TestPropertyRebuildEquivalence).
func reopenDeliveries(r *rand.Rand) []datagen.Dataset {
	var out []datagen.Dataset
	nSources := 2 + r.Intn(3)
	geneSource := r.Intn(nSources)
	for si := 0; si < nSources; si++ {
		src := fmt.Sprintf("src%d", si)
		var keys []string
		first := map[string]datagen.EntitySpec{}
		nDeliveries := 1 + r.Intn(3)
		for d := 0; d < nDeliveries; d++ {
			ds := datagen.Dataset{Source: src}
			for i, n := 0, 1+r.Intn(8); i < n; i++ {
				if len(keys) > 0 && r.Intn(3) == 0 {
					ds.Entities = append(ds.Entities, first[keys[r.Intn(len(keys))]])
					continue
				}
				spec := datagen.EntitySpec{Key: fmt.Sprintf("k%d", len(keys)), Types: []string{"Drug"}}
				if si == geneSource {
					sym := reopenSymbols[r.Intn(3)]
					spec.Types = []string{"Gene"}
					spec.Attrs = model.Record{"symbol": model.String(sym), "name": model.String(reopenGenes[sym])}
				} else {
					spec.Attrs = model.Record{"name": model.String(reopenDrugs[r.Intn(len(reopenDrugs))])}
				}
				keys = append(keys, spec.Key)
				first[spec.Key] = spec
				ds.Entities = append(ds.Entities, spec)
			}
			if d == nDeliveries-1 {
				for i := 0; i < 3; i++ {
					ds.Links = append(ds.Links, datagen.LinkSpec{
						FromKey: keys[r.Intn(len(keys))], Predicate: "rel",
						ToKey: keys[r.Intn(len(keys))], Confidence: 1,
					})
				}
				if si != geneSource {
					ds.Links = append(ds.Links, datagen.LinkSpec{
						FromKey: keys[r.Intn(len(keys))], Predicate: "targets_symbol",
						Literal: model.String(reopenSymbols[r.Intn(len(reopenSymbols))]), Confidence: 1,
					})
					sym := reopenSymbols[r.Intn(3)]
					ds.Texts = append(ds.Texts, fmt.Sprintf("%s targets %s.", reopenDrugs[r.Intn(len(reopenDrugs))], reopenGenes[sym]))
				}
			}
			out = append(out, ds)
		}
	}
	return out
}

// TestPropertyRebuildEquivalence is the reopen-vs-never-closed
// differential: over random delivery sequences curated with a three-record
// chunk (so re-delivered keys fall in other chunks than their first
// delivery), a fresh pipeline's RebuildFromStore and the engine's
// RefreshDerived must each reproduce the live counts and ER partition, at
// one scoring worker and at four.
//
// Replay relates a source's stored records first and integrates its links
// and texts after them, so the generator puts those on the source's last
// delivery: a link or text on an earlier delivery can see different
// entities after a reopen. For the same reason a re-delivered key repeats
// its first values: a pending link that a later delivery of the target's
// source resolves would otherwise see the changed value only after a
// reopen.
func TestPropertyRebuildEquivalence(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism-%d", par), func(t *testing.T) {
			f := func(seed int64) bool {
				db, err := core.Open(core.Options{
					Axioms:      datagen.LifeSciAxioms,
					LinkRules:   reopenRules,
					Patterns:    reopenPatterns,
					Parallelism: par,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				curate.SetChunk(db.Pipeline(), 3)
				for _, ds := range reopenDeliveries(rand.New(rand.NewSource(seed))) {
					if err := db.Ingest(ds); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
				live := curate.CurationState(db.Pipeline())

				rebuilt, err := curate.NewPipeline(curate.Config{
					Store:       db.Store(),
					Graph:       graph.New(),
					Ontology:    datagen.LifeSciOntology(),
					LinkRules:   reopenRules,
					Patterns:    reopenPatterns,
					Parallelism: par,
				})
				if err != nil {
					t.Fatal(err)
				}
				curate.SetChunk(rebuilt, 3)
				if err := rebuilt.RebuildFromStore(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if got := curate.CurationState(rebuilt); got != live {
					t.Errorf("seed %d: rebuild diverged\n--- live ---\n%s\n--- rebuilt ---\n%s", seed, live, got)
					return false
				}
				if err := db.RefreshDerived(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if got := curate.CurationState(db.Pipeline()); got != live {
					t.Errorf("seed %d: refresh diverged\n--- live ---\n%s\n--- refreshed ---\n%s", seed, live, got)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}
