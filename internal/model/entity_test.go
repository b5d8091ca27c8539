package model

import (
	"strings"
	"testing"
)

func TestEntityTypes(t *testing.T) {
	e := &Entity{ID: 1, Key: "drugbank:DB00945", Source: "drugbank"}
	if e.HasType("Drug") {
		t.Error("fresh entity has no types")
	}
	e.AddType("Drug")
	e.AddType("Approved Drugs")
	e.AddType("Drug") // duplicate ignored
	if len(e.Types) != 2 {
		t.Fatalf("Types = %v", e.Types)
	}
	if e.Types[0] != "Approved Drugs" || e.Types[1] != "Drug" {
		t.Errorf("types must stay sorted: %v", e.Types)
	}
	if !e.HasType("Drug") || e.HasType("Gene") {
		t.Error("HasType broken")
	}
}

func TestEntityClone(t *testing.T) {
	e := &Entity{ID: 2, Key: "k", Attrs: Record{"name": String("Warfarin")}, Types: []string{"Drug"}}
	c := e.Clone()
	c.AddType("Chemical")
	c.Attrs["name"] = String("changed")
	if e.HasType("Chemical") {
		t.Error("Clone must not alias Types")
	}
	if !Equal(e.Attrs["name"], String("Warfarin")) {
		t.Error("Clone must not alias Attrs")
	}
}

func TestEntityString(t *testing.T) {
	e := &Entity{ID: 3, Key: "uniprot:P04637", Source: "uniprot", Types: []string{"Gene"}, Attrs: Record{"symbol": String("TP53")}}
	s := e.String()
	for _, want := range []string{"uniprot:P04637", "Gene", "TP53"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestTripleObjectEntity(t *testing.T) {
	tr := Triple{Subject: 1, Predicate: "targets", Object: Ref(2), Source: "drugbank", Confidence: 1}
	if id, ok := tr.Object.AsRef(); !ok || id != 2 {
		t.Error("a ref object must name its entity")
	}
	lit := Triple{Subject: 1, Predicate: "dosage_mg", Object: Float(5.1)}
	if _, ok := lit.Object.AsRef(); ok {
		t.Error("a literal object names no entity")
	}
	if !strings.Contains(tr.String(), "targets") {
		t.Errorf("Triple.String = %q", tr.String())
	}
}
