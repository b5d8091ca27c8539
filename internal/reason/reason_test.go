package reason

import (
	"slices"
	"strings"
	"testing"

	"scdb/internal/graph"
	"scdb/internal/model"
	"scdb/internal/ontology"
)

// fixture assembles the Figure-2 life-science fragment: entities from
// DrugBank/CTD/UniProt-like sources plus the paper's ontology.
func fixture() (*graph.Graph, *ontology.Ontology, map[string]model.EntityID) {
	g := graph.New()
	o := ontology.New()
	o.SubConceptOf("Approved Drugs", "Drug")
	o.SubConceptOf("Drug", "Chemical")
	o.SubConceptOf("Osteosarcoma", "Neoplasms")
	o.SubConceptOf("Neoplasms", "Disease")
	o.Disjoint("Chemical", "Disease")
	o.AddExistential("Drug", "hasTarget", "Gene")
	o.SubRoleOf("targets", "hasTarget")
	o.Domain("targets", "Drug")
	o.Range("targets", "Gene")

	ids := map[string]model.EntityID{}
	add := func(name, key string, types ...string) {
		ids[name] = g.AddEntity(&model.Entity{Key: key, Source: "drugbank", Types: types, Attrs: model.Record{"name": model.String(name)}, Confidence: 1})
	}
	add("Acetaminophen", "DB00316", "Drug")
	add("Methotrexate", "DB00563", "Drug")
	add("Warfarin", "DB00682") // no asserted type: domain inference must supply Drug
	add("DHFR", "P00374", "Gene")
	add("PTGS2", "P35354", "Gene")
	add("Osteosarcoma", "D012516", "Osteosarcoma")
	g.AddEdge(graph.Edge{From: ids["Methotrexate"], Predicate: "targets", To: model.Ref(ids["DHFR"]), Source: "drugbank", Confidence: 1})
	g.AddEdge(graph.Edge{From: ids["Warfarin"], Predicate: "targets", To: model.Ref(ids["PTGS2"]), Source: "drugbank", Confidence: 1})
	return g, o, ids
}

func TestSubsumptionClosure(t *testing.T) {
	g, o, ids := fixture()
	r := New(g, o)
	r.Materialize()
	types := r.EntityTypes(ids["Acetaminophen"])
	if strings.Join(types, ",") != "Chemical,Drug" {
		t.Errorf("types = %v", types)
	}
	if !r.HasType(ids["Acetaminophen"], "Chemical") {
		t.Error("Drug must be inferred Chemical")
	}
	if r.HasType(ids["Acetaminophen"], "Disease") {
		t.Error("no Disease membership")
	}
	if !r.HasType(ids["Osteosarcoma"], "Disease") {
		t.Error("Osteosarcoma ⊑ Neoplasms ⊑ Disease")
	}
}

func TestDomainRangeInference(t *testing.T) {
	g, o, ids := fixture()
	r := New(g, o)
	r.Materialize()
	// Warfarin has no asserted type but targets something.
	if !r.HasType(ids["Warfarin"], "Drug") {
		t.Error("domain of targets must type Warfarin as Drug")
	}
	if !r.HasType(ids["Warfarin"], "Chemical") {
		t.Error("inferred domain type must close under subsumption")
	}
	why := r.Explain(ids["Warfarin"], "Drug")
	if !strings.Contains(why, "domain") {
		t.Errorf("Explain = %q", why)
	}
	if r.Explain(ids["Warfarin"], "Gene") != "" {
		t.Error("non-membership must have empty explanation")
	}
	if r.Explain(ids["DHFR"], "Gene") != "asserted" {
		t.Error("asserted membership explanation")
	}
}

func TestExistentialWitness(t *testing.T) {
	g, o, ids := fixture()
	r := New(g, o)
	r.Materialize()
	// The paper's inference: Acetaminophen is a Drug, so it must have a
	// target, though no edge is asserted.
	wits := r.Witnesses(ids["Acetaminophen"])
	if len(wits) != 1 || wits[0].Role != "hasTarget" || wits[0].Filler != "Gene" {
		t.Fatalf("witnesses = %v", wits)
	}
	// Methotrexate targets DHFR concretely (targets ⊑ hasTarget), so no
	// witness is needed.
	if w := r.Witnesses(ids["Methotrexate"]); w != nil {
		t.Errorf("Methotrexate witness = %v, want none", w)
	}
	all := r.AllWitnesses()
	if len(all) != 1 {
		t.Errorf("AllWitnesses = %v", all)
	}
}

func TestWitnessRetractsWhenEdgeArrives(t *testing.T) {
	g, o, ids := fixture()
	r := New(g, o)
	r.Materialize()
	if len(r.Witnesses(ids["Acetaminophen"])) != 1 {
		t.Fatal("precondition: witness exists")
	}
	// Discovery: Acetaminophen targets PTGS2 (stated in the paper's text).
	g.AddEdge(graph.Edge{From: ids["Acetaminophen"], Predicate: "targets", To: model.Ref(ids["PTGS2"]), Source: "ctd", Confidence: 1})
	r.MaterializeEntities([]model.EntityID{ids["Acetaminophen"]})
	if w := r.Witnesses(ids["Acetaminophen"]); w != nil {
		t.Errorf("witness must retract once a concrete edge exists: %v", w)
	}
}

// TestWitnessSeesFillerInferredInSamePass: y -r-> z, both A, with A ⊑ ∃r.D
// and D the range of r. z is D only by inference, and z follows y in ID
// order, so one pass must infer every affected entity's types before it
// checks any existential: y's is discharged by z, and only z's stands. A
// second full pass must agree with the first.
func TestWitnessSeesFillerInferredInSamePass(t *testing.T) {
	g := graph.New()
	o := ontology.New()
	o.DeclareConcept("A")
	o.DeclareConcept("D")
	o.Range("r", "D")
	o.AddExistential("A", "r", "D")
	y := g.AddEntity(&model.Entity{Key: "y", Source: "s", Types: []string{"A"}, Attrs: model.Record{}})
	z := g.AddEntity(&model.Entity{Key: "z", Source: "s", Types: []string{"A"}, Attrs: model.Record{}})
	g.AddEdge(graph.Edge{From: y, Predicate: "r", To: model.Ref(z), Source: "s"})

	r := New(g, o)
	want := []Witness{{Entity: z, Role: "r", Filler: "D", Because: "A"}}
	check := func(step string) {
		t.Helper()
		if got := r.AllWitnesses(); !slices.Equal(got, want) {
			t.Errorf("%s: witnesses = %v, want %v", step, got, want)
		}
		if !r.HasType(z, "D") {
			t.Errorf("%s: z must be D by the range of r", step)
		}
	}
	r.MaterializeEntities([]model.EntityID{y, z})
	check("delivery")
	r.Materialize()
	check("second pass")
}

func TestInconsistencyDetection(t *testing.T) {
	g, o, ids := fixture()
	bad := g.AddEntity(&model.Entity{Key: "weird", Source: "s", Types: []string{"Drug", "Osteosarcoma"}, Attrs: model.Record{}})
	r := New(g, o)
	r.Materialize()
	incons := r.Inconsistencies()
	if len(incons) == 0 {
		t.Fatal("Drug ⊓ Osteosarcoma entity must be inconsistent (Chemical vs Disease)")
	}
	found := false
	for _, ic := range incons {
		if ic.Entity == bad {
			found = true
			if ic.String() == "" {
				t.Error("empty inconsistency string")
			}
		}
		if ic.Entity == ids["Acetaminophen"] {
			t.Error("consistent entity flagged")
		}
	}
	if !found {
		t.Error("the inconsistent entity was not reported")
	}
}

func TestIncrementalMatchesFull(t *testing.T) {
	g, o, ids := fixture()
	full := New(g, o)
	full.Materialize()

	inc := New(g, o)
	inc.Materialize()
	// Mutate: new entity + edge, re-infer only the touched entities.
	newDrug := g.AddEntity(&model.Entity{Key: "DB999", Source: "drugbank", Attrs: model.Record{}})
	g.AddEdge(graph.Edge{From: newDrug, Predicate: "targets", To: model.Ref(ids["DHFR"]), Source: "drugbank"})
	inc.MaterializeEntities([]model.EntityID{newDrug})

	fresh := New(g, o)
	fresh.Materialize()

	for _, id := range g.EntityIDs() {
		a := strings.Join(inc.EntityTypes(id), ",")
		b := strings.Join(fresh.EntityTypes(id), ",")
		if a != b {
			t.Errorf("entity %d: incremental %q != full %q", id, a, b)
		}
	}
	if inc.Stats().Witnesses != fresh.Stats().Witnesses {
		t.Errorf("witness counts diverge: %d vs %d", inc.Stats().Witnesses, fresh.Stats().Witnesses)
	}
}

func TestInstances(t *testing.T) {
	g, o, ids := fixture()
	r := New(g, o)
	r.Materialize()
	chems := r.Instances("Chemical")
	// Acetaminophen, Methotrexate, Warfarin (inferred).
	if len(chems) != 3 {
		t.Errorf("Instances(Chemical) = %v", chems)
	}
	genes := r.Instances("Gene")
	if len(genes) != 2 {
		t.Errorf("Instances(Gene) = %v", genes)
	}
	_ = ids
}

func TestMergedEntityReasoning(t *testing.T) {
	g, o, ids := fixture()
	// Another source's record of Acetaminophen, merged by ER.
	dup := g.AddEntity(&model.Entity{Key: "CID1983", Source: "ctd", Attrs: model.Record{}})
	g.Merge(ids["Acetaminophen"], dup)
	r := New(g, o)
	r.Materialize()
	if !r.HasType(dup, "Chemical") {
		t.Error("reasoning must follow merge aliases")
	}
	if got := r.EntityTypes(999999); got != nil {
		t.Errorf("types of unknown entity = %v", got)
	}
}
