package refine

import (
	"strings"
	"testing"

	"scdb/internal/fusion"
	"scdb/internal/graph"
	"scdb/internal/model"
	"scdb/internal/ontology"
)

const warfarin = model.EntityID(1)

func warfarinFixture() (*ontology.Ontology, *fusion.Worlds) {
	o := ontology.New()
	for _, c := range []string{"White", "Asian", "Black"} {
		o.SubConceptOf(c, "Population")
	}
	o.Disjoint("White", "Asian")
	o.Disjoint("White", "Black")
	o.Disjoint("Asian", "Black")
	w := fusion.New(o)
	w.AddClaim(fusion.Claim{Source: "us", Entity: warfarin, Attr: "dose", Value: model.Float(5.1), Context: []string{"White"}})
	w.AddClaim(fusion.Claim{Source: "asia", Entity: warfarin, Attr: "dose", Value: model.Float(3.4), Context: []string{"Asian"}})
	w.AddClaim(fusion.Claim{Source: "africa", Entity: warfarin, Attr: "dose", Value: model.Float(6.1), Context: []string{"Black"}})
	return o, w
}

func TestRefineGeneratesPaperQuestions(t *testing.T) {
	o, w := warfarinFixture()
	r := New(o, nil, w)
	refs := r.Refine(warfarin, "dose")
	var kinds []string
	var questions []string
	for _, ref := range refs {
		kinds = append(kinds, ref.Kind.String())
		questions = append(questions, ref.Question)
	}
	joined := strings.Join(questions, " | ")
	// The three refined queries the paper lists (Section 4.1).
	if !strings.Contains(joined, "sensitive to Population") {
		t.Errorf("missing sensitivity question: %s", joined)
	}
	if !strings.Contains(joined, "within the Asian class") {
		t.Errorf("missing drill-down question: %s", joined)
	}
	if !strings.Contains(joined, "narrow range") {
		t.Errorf("missing range probe: %s", joined)
	}
	// 1 sensitivity + 3 drill-downs + 1 range probe.
	if len(refs) != 5 {
		t.Errorf("refinements = %d (%v)", len(refs), kinds)
	}
}

func TestRefineNoClaimsNoRefinements(t *testing.T) {
	o, w := warfarinFixture()
	r := New(o, nil, w)
	if got := r.Refine(999, "dose"); got != nil {
		t.Errorf("refinements for unknown entity = %v", got)
	}
	if got := New(o, nil, nil).Refine(warfarin, "dose"); got != nil {
		t.Errorf("nil worlds must refine to nothing: %v", got)
	}
}

func TestRefineAgreementNoSensitivity(t *testing.T) {
	o := ontology.New()
	o.SubConceptOf("A", "P")
	o.SubConceptOf("B", "P")
	o.Disjoint("A", "B")
	w := fusion.New(o)
	w.AddClaim(fusion.Claim{Source: "s1", Entity: 1, Attr: "x", Value: model.Int(5), Context: []string{"A"}})
	w.AddClaim(fusion.Claim{Source: "s2", Entity: 1, Attr: "x", Value: model.Int(5), Context: []string{"B"}})
	r := New(o, nil, w)
	for _, ref := range r.Refine(1, "x") {
		if ref.Kind == KindSensitivity {
			t.Error("agreeing claims must not raise a sensitivity question")
		}
	}
	if r.Sensitive(1, "x") {
		t.Error("agreeing values are not sensitive")
	}
}

func TestSensitiveAndNarrowRange(t *testing.T) {
	o, w := warfarinFixture()
	r := New(o, nil, w)
	if !r.Sensitive(warfarin, "dose") {
		t.Error("Warfarin dose must be sensitive to population")
	}
	// Doses 3.4..6.1, mean ≈ 4.87: spread/mean ≈ 0.55 — narrow at 0.6, not
	// at 0.5.
	if r.NarrowRange(warfarin, "dose", 0.5) {
		t.Error("range 3.4-6.1 is not narrow at ratio 0.5")
	}
	if !r.NarrowRange(warfarin, "dose", 0.6) {
		t.Error("range must be narrow at ratio 0.6")
	}
	if r.NarrowRange(warfarin, "absent", 0.5) {
		t.Error("no claims → not narrow")
	}
}

func TestAnswerWithRefinementWarfarin(t *testing.T) {
	o, w := warfarinFixture()
	r := New(o, nil, w)
	ans := r.AnswerWithRefinement(warfarin, "dose", 5.0, 0.5)
	if ans.NaiveCertain {
		t.Error("naive certain answer must be false (the paper's point)")
	}
	if ans.Justified.Degree < 0.79 || ans.Justified.Degree > 0.81 {
		t.Errorf("justified degree = %v, want 0.8", ans.Justified.Degree)
	}
	if !ans.Sensitive {
		t.Error("refinement must discover sensitivity")
	}
	if len(ans.Refinements) == 0 {
		t.Error("refinements missing")
	}
}

func TestRandomWalkDiscovery(t *testing.T) {
	g := graph.New()
	var ids []model.EntityID
	for i := 0; i < 10; i++ {
		ids = append(ids, g.AddEntity(&model.Entity{Key: string(rune('a' + i)), Source: "s", Attrs: model.Record{}}))
	}
	for i := 0; i+1 < 10; i++ {
		g.AddEdge(graph.Edge{From: ids[i], Predicate: "next", To: model.Ref(ids[i+1]), Source: "s"})
	}
	r := New(ontology.New(), g, nil)
	found := r.RandomWalk(ids[0], 20, 42)
	if len(found) == 0 {
		t.Fatal("walk found nothing")
	}
	// Determinism.
	again := r.RandomWalk(ids[0], 20, 42)
	if len(found) != len(again) {
		t.Error("walk must be deterministic for a seed")
	}
	for i := range found {
		if found[i] != again[i] {
			t.Error("walk order must be deterministic")
		}
	}
	// Chain with discovery bias: the walk marches forward.
	if found[0] != ids[1] {
		t.Errorf("first discovery = %v", found[0])
	}
	if got := r.RandomWalk(999, 5, 1); got != nil {
		t.Error("walk from unknown entity must be nil")
	}
}

// --- QBE ---------------------------------------------------------------

func qbeRows() []model.Record {
	return []model.Record{
		{"name": model.String("Warfarin"), "class": model.String("anticoagulant"), "target": model.String("VKORC1")},
		{"name": model.String("Heparin"), "class": model.String("anticoagulant"), "target": model.String("ATIII")},
		{"name": model.String("Ibuprofen"), "class": model.String("nsaid"), "target": model.String("PTGS2")},
		{"name": model.String("Naproxen"), "class": model.String("nsaid"), "target": model.String("PTGS2")},
		{"name": model.String("Aspirin"), "class": model.String("nsaid"), "target": model.String("PTGS1")},
	}
}

func TestCompleteByExample(t *testing.T) {
	example := model.Record{"name": model.String("Ibuprofen"), "class": model.Null(), "target": model.Null()}
	c := CompleteByExample(qbeRows(), example, nil, 3)
	if got := c.Completed.Get("class"); !model.Equal(got, model.String("nsaid")) {
		t.Errorf("class completed as %v", got)
	}
	if got := c.Completed.Get("target"); !model.Equal(got, model.String("PTGS2")) {
		t.Errorf("target completed as %v", got)
	}
	if c.Confidence["class"] <= 0 || c.Confidence["class"] > 1 {
		t.Errorf("confidence = %v", c.Confidence["class"])
	}
	if c.Support["target"] < 1 {
		t.Errorf("support = %v", c.Support)
	}
}

func TestCompleteByExampleNoEvidence(t *testing.T) {
	example := model.Record{"name": model.String("Zzzzz"), "class": model.Null()}
	c := CompleteByExample(qbeRows(), example, nil, 3)
	// Zero similarity to everything: class stays null.
	if !c.Completed.Get("class").IsNull() {
		t.Errorf("class = %v, want null", c.Completed.Get("class"))
	}
	// Empty row set.
	c = CompleteByExample(nil, example, nil, 3)
	if !c.Completed.Get("class").IsNull() {
		t.Error("empty rows must not complete")
	}
	// Nothing to complete.
	full := model.Record{"name": model.String("Warfarin")}
	c = CompleteByExample(qbeRows(), full, nil, 3)
	if len(c.Confidence) != 0 {
		t.Error("fully specified example needs no completion")
	}
}

func TestCompleteByExampleDoesNotMutateInput(t *testing.T) {
	example := model.Record{"name": model.String("Ibuprofen"), "class": model.Null()}
	CompleteByExample(qbeRows(), example, nil, 3)
	if !example.Get("class").IsNull() {
		t.Error("input example mutated")
	}
}
