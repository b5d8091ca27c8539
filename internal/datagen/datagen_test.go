package datagen

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"scdb/internal/model"
)

func TestLifeSciCanonPresent(t *testing.T) {
	sets := LifeSci(1, 0, 0, 0)
	if len(sets) != 3 {
		t.Fatalf("datasets = %d", len(sets))
	}
	byName := map[string]Dataset{}
	for _, d := range sets {
		byName[d.Source] = d
	}
	db := byName["drugbank"]
	wantDrugs := map[string]bool{"Warfarin": false, "Ibuprofen": false, "Acetaminophen": false, "Methotrexate": false, "Aminopterin": false}
	for _, e := range db.Entities {
		if n, ok := e.Attrs.Get("name").AsString(); ok {
			if _, want := wantDrugs[n]; want {
				wantDrugs[n] = true
			}
		}
	}
	for d, seen := range wantDrugs {
		if !seen {
			t.Errorf("canonical drug %s missing", d)
		}
	}
	// Methotrexate → DHFR target row exists.
	found := false
	for _, l := range db.Links {
		if l.FromKey == "DB00563" && l.Predicate == "targets_symbol" {
			if s, _ := l.Literal.AsString(); s == "DHFR" {
				found = true
			}
		}
	}
	if !found {
		t.Error("Methotrexate targets DHFR row missing")
	}
	// CTD has the TP53→Osteosarcoma association and abstracts.
	ctd := byName["ctd"]
	assoc := false
	for _, l := range ctd.Links {
		if l.Predicate == "associatedWith" && l.FromKey == "gene:TP53" && l.ToKey == "mesh:D012516" {
			assoc = true
		}
	}
	if !assoc {
		t.Error("TP53 associatedWith Osteosarcoma missing")
	}
	if len(ctd.Texts) == 0 {
		t.Error("unstructured abstracts missing")
	}
	// UniProt holds the three canonical genes.
	if len(byName["uniprot"].Entities) != 3 {
		t.Errorf("uniprot entities = %d", len(byName["uniprot"].Entities))
	}
}

// canonical renders datasets by content. reflect.DeepEqual would compare a
// model.Value's payload pointer, so two runs that build equal strings in
// different memory would differ.
func canonical(sets []Dataset) []byte {
	var b []byte
	for _, d := range sets {
		b = fmt.Appendf(b, "source %q\n", d.Source)
		for _, e := range d.Entities {
			b = fmt.Appendf(b, "entity %q %q ", e.Key, e.Types)
			b = append(model.AppendRecord(b, e.Attrs), '\n')
		}
		for _, l := range d.Links {
			b = fmt.Appendf(b, "link %q %q %q %v ", l.FromKey, l.Predicate, l.ToKey, l.Confidence)
			b = append(model.AppendValue(b, l.Literal), '\n')
		}
		b = fmt.Appendf(b, "texts %q\n", d.Texts)
	}
	return b
}

func TestLifeSciDeterministicAndScales(t *testing.T) {
	a := LifeSci(42, 50, 30, 20)
	b := LifeSci(42, 50, 30, 20)
	if !bytes.Equal(canonical(a), canonical(b)) {
		t.Error("LifeSci not deterministic for a seed")
	}
	c := LifeSci(43, 50, 30, 20)
	if bytes.Equal(canonical(a), canonical(c)) {
		t.Error("different seeds must differ")
	}
	small := LifeSci(1, 0, 0, 0)
	if len(a[0].Entities) <= len(small[0].Entities) {
		t.Error("bulk did not scale drugbank")
	}
}

func TestLifeSciOntology(t *testing.T) {
	o := LifeSciOntology()
	if !o.Subsumes("Chemical", "Phenylpropionates") {
		t.Error("chemical taxonomy broken")
	}
	if !o.Subsumes("Disease", "Osteosarcoma") {
		t.Error("disease taxonomy broken")
	}
	if !o.AreDisjoint("Drug", "Osteosarcoma") {
		t.Error("disjointness broken")
	}
	if len(o.Existentials("Approved Drugs")) != 1 {
		t.Error("Drug existential missing")
	}
	if !o.SubsumesRole("hasTarget", "targets") {
		t.Error("role hierarchy broken")
	}
}

func TestPopulationOntology(t *testing.T) {
	o := PopulationOntology()
	part := o.DisjointPartition("Population")
	if len(part) != 3 {
		t.Errorf("partition = %v", part)
	}
}

func TestClinicalTrials(t *testing.T) {
	ts := ClinicalTrials(7, 10)
	if len(ts) != 3 {
		t.Fatalf("sources = %d", len(ts))
	}
	wantDose := map[string]float64{"trials-us": 5.1, "trials-asia": 3.4, "trials-africa": 6.1}
	for _, s := range ts {
		if s.Dose != wantDose[s.Source] {
			t.Errorf("%s dose = %v", s.Source, s.Dose)
		}
		if len(s.Records) != 10 {
			t.Errorf("%s records = %d", s.Source, len(s.Records))
		}
		for _, r := range s.Records {
			d, ok := r.Get("dose_mg").AsFloat()
			if !ok || d < s.Dose-0.11 || d > s.Dose+0.11 {
				t.Errorf("%s dose jitter out of band: %v", s.Source, d)
			}
			if p, _ := r.Get("population").AsString(); p != s.Population {
				t.Errorf("population mismatch: %v", r)
			}
		}
	}
}

func TestDirtyTables(t *testing.T) {
	sets, truth := DirtyTables(3, 4, 50, 0.8, 0.3)
	if len(sets) != 4 {
		t.Fatalf("sources = %d", len(sets))
	}
	if len(sets[0].Entities) != 50 {
		t.Errorf("source 0 must cover the full universe, has %d", len(sets[0].Entities))
	}
	if len(truth) == 0 {
		t.Fatal("no ground-truth pairs")
	}
	// Truth pairs reference existing keys.
	keys := map[string]bool{}
	for _, ds := range sets {
		for _, e := range ds.Entities {
			keys[e.Key] = true
		}
	}
	for _, p := range truth {
		if !keys[p.KeyA] || !keys[p.KeyB] {
			t.Fatalf("truth pair references unknown key: %+v", p)
		}
	}
	// Schemas differ across sources.
	a0 := sets[0].Entities[0].Attrs.Keys()
	a1 := sets[1].Entities[0].Attrs.Keys()
	if reflect.DeepEqual(a0, a1) {
		t.Error("sources must use different schemas")
	}
	// Deterministic.
	sets2, truth2 := DirtyTables(3, 4, 50, 0.8, 0.3)
	if !bytes.Equal(canonical(sets), canonical(sets2)) || !reflect.DeepEqual(truth, truth2) {
		t.Error("DirtyTables not deterministic")
	}
}

func TestStream(t *testing.T) {
	evs := Stream(5, 40)
	if len(evs) != 40 {
		t.Fatalf("events = %d", len(evs))
	}
	labels := map[string]int{}
	for _, e := range evs {
		if len(e.Entities) != 1 {
			t.Fatalf("event entities = %d", len(e.Entities))
		}
		l, _ := e.Entities[0].Attrs.Get("label").AsString()
		labels[l]++
	}
	dups := 0
	for _, n := range labels {
		if n > 1 {
			dups++
		}
	}
	if dups == 0 {
		t.Error("stream must contain cross-platform duplicates")
	}
}

func TestPerturbKeepsType(t *testing.T) {
	sets, _ := DirtyTables(9, 2, 30, 1.0, 1.0)
	for _, ds := range sets {
		for _, e := range ds.Entities {
			for _, k := range e.Attrs.Keys() {
				if e.Attrs[k].Kind() != model.KindString {
					t.Fatalf("non-string attr after perturbation: %v", e.Attrs)
				}
			}
		}
	}
}
