package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"scdb/internal/datagen"
	"scdb/internal/model"
)

// deviceAxioms is a small device world: Sensor and Gauge are Devices, and
// an observes edge makes its subject a Device and an Observer, its object
// a Place. Two domains make EnrichPredictedLinks consider every Device
// while a predicted edge still adds a type (Observer).
const deviceAxioms = `sub Sensor Device
sub Gauge Device
concept Place
domain observes Device
domain observes Observer
range observes Place`

// laterAxioms are told one at a time by ADD AXIOMS steps.
var laterAxioms = []string{"sub Sensor Instrument", "sub Place Site", "domain observes Watcher", "sub Gauge Instrument"}

// TestConceptCountsMatchRecount holds the optimizer's per-concept instance
// counts, which the reasoner keeps as it re-infers touched entities, to a
// full recount through Reasoner.EntityTypes after every step of seeded
// random histories: typed new entities, merges planted across two sources,
// re-delivered keys that add a type, observes links, ADD AXIOMS,
// EnrichPredictedLinks, a follower's open and refresh, and a reopen. Every
// concept of the ontology is checked, those at 0 included.
func TestConceptCountsMatchRecount(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { conceptCountHistory(t, seed) })
	}
}

func conceptCountHistory(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	opts := Options{Dir: dir, Axioms: deviceAxioms}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()

	types := [][]string{nil, {"Sensor"}, {"Gauge"}, {"Place"}, {"Sensor", "Place"}}
	// Each name is two random words: one name sent by both sources plants a
	// merge, and two names share no token.
	names := make([]string, 24)
	for i := range names {
		w := make([]byte, 15)
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		w[7] = ' '
		names[i] = string(w)
	}
	told := 0
	for step := 0; step < 40; step++ {
		label := fmt.Sprintf("step %d", step)
		switch k := rng.Intn(10); {
		case k < 6:
			// A delivery of new and re-delivered keys. Names repeat across
			// the two sources, so the resolver merges some arrivals.
			ds := datagen.Dataset{Source: fmt.Sprintf("src_%d", rng.Intn(2))}
			for i, n := 0, 1+rng.Intn(8); i < n; i++ {
				ds.Entities = append(ds.Entities, datagen.EntitySpec{
					Key:   fmt.Sprintf("k%02d", rng.Intn(30)),
					Types: types[rng.Intn(len(types))],
					Attrs: model.Record{"name": model.String(names[rng.Intn(len(names))])},
				})
			}
			for i := 0; i < rng.Intn(4); i++ {
				from, to := ds.Entities[rng.Intn(len(ds.Entities))], ds.Entities[rng.Intn(len(ds.Entities))]
				if from.Key != to.Key {
					ds.Links = append(ds.Links, datagen.LinkSpec{FromKey: from.Key, Predicate: "observes", ToKey: to.Key})
				}
			}
			label += ": delivery to " + ds.Source
			if err := db.Ingest(ds); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		case k == 6 && told < len(laterAxioms):
			label += ": ADD AXIOMS " + laterAxioms[told]
			if _, _, err := db.Query(fmt.Sprintf("ADD AXIOMS '%s'", laterAxioms[told])); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			told++
		case k == 7:
			label += ": EnrichPredictedLinks"
			if _, err := db.EnrichPredictedLinks("observes", 1, 0.5); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		case k == 8:
			// A follower opens over the primary's directory and refreshes.
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			ro := opts
			ro.ReadOnly = true
			f, err := Open(ro)
			if err != nil {
				t.Fatal(err)
			}
			checkConceptCounts(t, f, label+": follower open")
			if err := f.RefreshDerived(); err != nil {
				t.Fatal(err)
			}
			checkConceptCounts(t, f, label+": follower refresh")
			f.Close()
			label += ": reopen"
			if db, err = Open(opts); err != nil {
				t.Fatal(err)
			}
		default:
			continue
		}
		checkConceptCounts(t, db, label)
	}
}

// checkConceptCounts recounts every canonical entity's types and compares
// each ontology concept's InstanceCount with it. A concept no entity holds
// has no statistic of its own, so it reads its children's sum.
func checkConceptCounts(t *testing.T, db *DB, label string) {
	t.Helper()
	recount := map[string]int{}
	db.graph.ForEachEntity(func(e *model.Entity) bool {
		for _, c := range db.reasoner.EntityTypes(e.ID) {
			recount[c]++
		}
		return true
	})
	var want func(c string) int
	want = func(c string) int {
		if n := recount[c]; n > 0 {
			return n
		}
		sum := 0
		for _, child := range db.onto.Children(c) {
			sum += want(child)
		}
		return sum
	}
	concepts := map[string]bool{}
	for _, c := range db.onto.Concepts() {
		concepts[c] = true
		w := want(c)
		if n, ok := db.onto.InstanceCount(c); n != w || ok != (w > 0) {
			t.Errorf("%s: InstanceCount(%s) = %d, %v; recount %d", label, c, n, ok, w)
		}
	}
	for c := range recount {
		if !concepts[c] {
			t.Errorf("%s: %d entities hold %s, which has no statistic", label, recount[c], c)
		}
	}
}

// TestLiteralEdgeTypesItsSubject: a literal edge's predicate domain types
// its subject at once, as a reopen's re-curation does, also when the
// subject arrived in an earlier delivery of the source. Live ingest used
// to leave that subject un-inferred (and uncounted) until a reopen.
func TestLiteralEdgeTypesItsSubject(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Axioms: "domain owns Owner"}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	name := func(s string) model.Record { return model.Record{"name": model.String(s)} }
	if err := db.Ingest(datagen.Dataset{Source: "s", Entities: []datagen.EntitySpec{{Key: "x", Attrs: name("xavier quill")}}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest(datagen.Dataset{Source: "s", Entities: []datagen.EntitySpec{{Key: "y", Attrs: name("yolanda zest")}},
		Links: []datagen.LinkSpec{{FromKey: "x", Predicate: "owns", Literal: model.String("a boat")}}}); err != nil {
		t.Fatal(err)
	}
	for _, when := range []string{"live", "reopened"} {
		if when == "reopened" {
			db.Close()
			if db, err = Open(opts); err != nil {
				t.Fatal(err)
			}
		}
		x, _ := db.graph.FindByKey("s", "x")
		if got := db.reasoner.EntityTypes(x.ID); !slices.Equal(got, []string{"Owner"}) {
			t.Errorf("%s: x's types = %v, want [Owner]", when, got)
		}
		checkConceptCounts(t, db, when)
	}
}
