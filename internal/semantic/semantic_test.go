package semantic

import (
	"fmt"
	"testing"

	"scdb/internal/graph"
	"scdb/internal/model"
)

func drug(g *graph.Graph, key, name string) model.EntityID {
	return g.AddEntity(&model.Entity{Key: key, Source: "s", Types: []string{"Drug"},
		Attrs: model.Record{"name": model.String(name), "dosage_mg": model.Float(5), "indication": model.String("pain relief therapy")}})
}

func gene(g *graph.Graph, key, sym string) model.EntityID {
	return g.AddEntity(&model.Entity{Key: key, Source: "s", Types: []string{"Gene"},
		Attrs: model.Record{"symbol": model.String(sym), "organism": model.String("homo sapiens"), "function": model.String("protein coding enzyme")}})
}

func assertedTypes(g *graph.Graph) func(model.EntityID) []string {
	return func(id model.EntityID) []string {
		e, ok := g.Entity(id)
		if !ok {
			return nil
		}
		return e.Types
	}
}

func TestTypePredictorLearnsDrugVsGene(t *testing.T) {
	g := graph.New()
	for i := 0; i < 10; i++ {
		drug(g, fmt.Sprintf("d%d", i), fmt.Sprintf("drugname%d", i))
		gene(g, fmt.Sprintf("g%d", i), fmt.Sprintf("SYM%d", i))
	}
	p := NewTypePredictor()
	if n := p.TrainGraph(g, assertedTypes(g)); n != 20 {
		t.Fatalf("trained on %d entities", n)
	}
	if got := p.Classes(); len(got) != 2 || got[0] != "Drug" || got[1] != "Gene" {
		t.Fatalf("Classes = %v", got)
	}
	// An unlabeled drug-like entity.
	unk := &model.Entity{Key: "u", Source: "x", Attrs: model.Record{
		"name": model.String("newdrug"), "dosage_mg": model.Float(10), "indication": model.String("pain therapy")}}
	preds := p.Predict(unk, 2)
	if len(preds) != 2 {
		t.Fatalf("preds = %v", preds)
	}
	if preds[0].Concept != "Drug" {
		t.Errorf("top prediction = %v, want Drug", preds[0])
	}
	if preds[0].Confidence <= preds[1].Confidence {
		t.Error("confidences must be ordered")
	}
	// A gene-like entity.
	unkG := &model.Entity{Key: "u2", Source: "x", Attrs: model.Record{
		"symbol": model.String("ABCD"), "organism": model.String("homo sapiens")}}
	if got := p.Predict(unkG, 1); got[0].Concept != "Gene" {
		t.Errorf("gene-like predicted %v", got)
	}
}

func TestTypePredictorEdgeCases(t *testing.T) {
	p := NewTypePredictor()
	e := &model.Entity{Attrs: model.Record{"a": model.String("x")}}
	if got := p.Predict(e, 3); got != nil {
		t.Error("untrained predictor must return nil")
	}
	p.Train(e, []string{"C"})
	if got := p.Predict(e, 0); got != nil {
		t.Error("topK=0 must return nil")
	}
	got := p.Predict(e, 5)
	if len(got) != 1 || got[0].Concept != "C" {
		t.Errorf("single-class prediction = %v", got)
	}
	if got[0].Confidence < 0.99 {
		t.Errorf("single class confidence = %v", got[0].Confidence)
	}
}

func TestPredictionConfidencesSumToOne(t *testing.T) {
	g := graph.New()
	drug(g, "d1", "aspirin")
	gene(g, "g1", "TP53")
	p := NewTypePredictor()
	p.TrainGraph(g, assertedTypes(g))
	e := &model.Entity{Attrs: model.Record{"name": model.String("something")}}
	preds := p.Predict(e, 10)
	sum := 0.0
	for _, pr := range preds {
		sum += float64(pr.Confidence)
		if pr.Confidence < 0 || pr.Confidence > 1 {
			t.Errorf("confidence out of range: %v", pr)
		}
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("confidences sum to %v", sum)
	}
}

// linkFixture builds drugs targeting genes with one drug lacking its edge.
func linkFixture(t *testing.T) (*graph.Graph, model.EntityID, model.EntityID) {
	t.Helper()
	g := graph.New()
	var drugs, genes []model.EntityID
	for i := 0; i < 5; i++ {
		drugs = append(drugs, drug(g, fmt.Sprintf("d%d", i), fmt.Sprintf("drug%d", i)))
		genes = append(genes, gene(g, fmt.Sprintf("g%d", i), fmt.Sprintf("SYM%d", i)))
	}
	// All drugs except drugs[0] target genes[0] (a hub), plus their own gene.
	for i := 1; i < 5; i++ {
		g.AddEdge(graph.Edge{From: drugs[i], Predicate: "targets", To: model.Ref(genes[0]), Source: "s"})
		g.AddEdge(graph.Edge{From: drugs[i], Predicate: "targets", To: model.Ref(genes[i]), Source: "s"})
	}
	// drugs[0] shares context with the others through a disease edge.
	dis := g.AddEntity(&model.Entity{Key: "dis", Source: "s", Types: []string{"Disease"}, Attrs: model.Record{"name": model.String("arthritis")}})
	g.AddEdge(graph.Edge{From: drugs[0], Predicate: "treats", To: model.Ref(dis), Source: "s"})
	g.AddEdge(graph.Edge{From: genes[0], Predicate: "associatedWith", To: model.Ref(dis), Source: "s"})
	return g, drugs[0], genes[0]
}

func TestLinkPredictorSuggestsPatternAndNeighbors(t *testing.T) {
	g, d0, g0 := linkFixture(t)
	lp := NewLinkPredictor()
	if n := lp.Train(g, assertedTypes(g)); n == 0 {
		t.Fatal("no edges trained")
	}
	if n := lp.patterns["targets"]["Drug"]["Gene"]; n != 8 {
		t.Errorf("pattern support = %d, want 8", n)
	}
	sugg := lp.Suggest(g, d0, "targets", assertedTypes(g), 3)
	if len(sugg) == 0 {
		t.Fatal("no suggestions")
	}
	// The hub gene shares a neighbor (the disease) with d0, so it ranks first.
	if sugg[0].To != g0 {
		t.Errorf("top suggestion = %v, want hub gene %d", sugg[0], g0)
	}
	for _, s := range sugg {
		if s.Confidence <= 0 || s.Confidence > 0.95 {
			t.Errorf("confidence out of (0,0.95]: %v", s)
		}
		if s.From != d0 || s.Predicate != "targets" {
			t.Errorf("malformed suggestion: %+v", s)
		}
	}
}

func TestLinkPredictorExcludesExistingEdges(t *testing.T) {
	g, d0, g0 := linkFixture(t)
	lp := NewLinkPredictor()
	lp.Train(g, assertedTypes(g))
	// Once the edge exists it must no longer be suggested.
	g.AddEdge(graph.Edge{From: d0, Predicate: "targets", To: model.Ref(g0), Source: "s"})
	for _, s := range lp.Suggest(g, d0, "targets", assertedTypes(g), 10) {
		if s.To == g0 {
			t.Error("existing edge suggested")
		}
	}
}

func TestLinkPredictorUntrainedPredicate(t *testing.T) {
	g, d0, _ := linkFixture(t)
	lp := NewLinkPredictor()
	lp.Train(g, assertedTypes(g))
	if got := lp.Suggest(g, d0, "unknownPred", assertedTypes(g), 5); got != nil {
		t.Errorf("unknown predicate suggestions = %v", got)
	}
	if got := lp.Suggest(g, d0, "targets", assertedTypes(g), 0); got != nil {
		t.Error("topK=0 must return nil")
	}
}

// TestRowColumnsNotTokens: a curated entity's attributes are its stored
// row; the type predictor reads the same tokens from it as from a copy
// without _key and _types.
func TestRowColumnsNotTokens(t *testing.T) {
	attrs := model.Record{"name": model.String("Warfarin Sodium"), "dosage_mg": model.Float(5), "note": model.Null()}
	row := attrs.Clone()
	row[model.KeyAttr] = model.String("DB00682 warfarin")
	row[model.TypesAttr] = model.List(model.String("Drug"), model.String("Chemical"))
	got := entityTokens(&model.Entity{Key: "DB00682 warfarin", Attrs: row})
	want := entityTokens(&model.Entity{Key: "DB00682 warfarin", Attrs: attrs})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("tokens of the stored row %q, of its attributes %q", got, want)
	}
}
