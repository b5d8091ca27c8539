package catalog

import (
	"testing"

	"scdb/internal/storage"
)

func open(t *testing.T) *storage.Store {
	t.Helper()
	s, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestOntologyRoundTrip(t *testing.T) {
	s := open(t)
	lines := []string{"sub Drug Chemical", "disjoint Chemical Disease", "exists Drug hasTarget Gene"}
	if added, err := AppendAxioms(s, lines); err != nil || len(added) != 3 {
		t.Fatalf("AppendAxioms = %v, %v", added, err)
	}
	o2, err := LoadOntology(s)
	if err != nil {
		t.Fatal(err)
	}
	if !o2.Subsumes("Chemical", "Drug") {
		t.Error("subsumption lost")
	}
	if !o2.AreDisjoint("Drug", "Disease") {
		t.Error("disjointness lost")
	}
	if len(o2.Existentials("Drug")) != 1 {
		t.Error("existential lost")
	}
	// Appending again stores only the line the table lacks.
	if added, err := AppendAxioms(s, append(lines, "concept Gene")); err != nil || len(added) != 1 {
		t.Fatalf("second AppendAxioms = %v, %v", added, err)
	}
	tb, _ := s.Table(OntologyTable)
	if tb.Len() != 4 {
		t.Errorf("axiom rows = %d, want 4", tb.Len())
	}
}

func TestLoadOntologyEmpty(t *testing.T) {
	o, err := LoadOntology(open(t))
	if err != nil || o == nil {
		t.Fatalf("empty ontology load: %v", err)
	}
	if len(o.Concepts()) != 0 {
		t.Error("fresh ontology must be empty")
	}
}
