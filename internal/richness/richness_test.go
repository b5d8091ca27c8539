package richness

import (
	"fmt"
	"math"
	"testing"

	"scdb/internal/graph"
	"scdb/internal/model"
)

// buildSource adds n entities to g for the named source; degree controls
// how many chain edges are added, fill the fraction of a second attribute
// populated, distinct whether names are distinct or constant.
func buildSource(g *graph.Graph, source string, n int, edges int, fill float64, distinct bool) []model.EntityID {
	ids := make([]model.EntityID, n)
	for i := 0; i < n; i++ {
		name := "same"
		if distinct {
			name = fmt.Sprintf("name-%04d", i)
		}
		attrs := model.Record{"name": model.String(name)}
		if float64(i) < fill*float64(n) {
			attrs["detail"] = model.String(fmt.Sprintf("detail-%d", i))
		}
		ids[i] = g.AddEntity(&model.Entity{Key: fmt.Sprintf("%s-%d", source, i), Source: source, Attrs: attrs, Confidence: 1})
	}
	for i := 0; i < edges && i+1 < n; i++ {
		g.AddEdge(graph.Edge{From: ids[i], Predicate: "linked", To: model.Ref(ids[i+1]), Source: source, Confidence: 1})
	}
	return ids
}

func TestMeasureBasicCounts(t *testing.T) {
	g := graph.New()
	buildSource(g, "rich", 10, 9, 1.0, true)
	m := Measure(g, "rich")
	if m.Entities != 10 || m.Edges != 9 {
		t.Fatalf("counts = %d entities %d edges", m.Entities, m.Edges)
	}
	if m.DistinctPredicates != 1 {
		t.Errorf("DistinctPredicates = %d", m.DistinctPredicates)
	}
	if math.Abs(m.AvgDegree-0.9) > 1e-12 {
		t.Errorf("AvgDegree = %v", m.AvgDegree)
	}
	if m.FillRate != 1.0 {
		t.Errorf("FillRate = %v", m.FillRate)
	}
	if m.Connectivity != 1.0 {
		t.Errorf("chain must be one component: %v", m.Connectivity)
	}
	if m.ValueEntropy <= 0.9 {
		t.Errorf("distinct values must have high entropy: %v", m.ValueEntropy)
	}
	if m.Score <= 0 || m.Score > 1 {
		t.Errorf("Score = %v", m.Score)
	}
}

func TestMeasureEmptySource(t *testing.T) {
	g := graph.New()
	m := Measure(g, "nothing")
	if m.Entities != 0 || m.Score != 0 {
		t.Errorf("empty source metrics = %+v", m)
	}
}

func TestRicherSourceScoresHigher(t *testing.T) {
	g := graph.New()
	// Rich: distinct values, full attributes, connected.
	buildSource(g, "rich", 50, 49, 1.0, true)
	// Poor: constant values, sparse attributes, no edges.
	buildSource(g, "poor", 50, 0, 0.1, false)
	rich := Measure(g, "rich")
	poor := Measure(g, "poor")
	if rich.Score <= poor.Score {
		t.Errorf("rich %.3f must outscore poor %.3f", rich.Score, poor.Score)
	}
	if poor.Connectivity > 0.05 {
		t.Errorf("edgeless source connectivity = %v", poor.Connectivity)
	}
}

func TestMeasureAllSorted(t *testing.T) {
	g := graph.New()
	buildSource(g, "a", 20, 19, 1.0, true)
	buildSource(g, "b", 20, 0, 0.2, false)
	buildSource(g, "c", 20, 10, 0.5, true)
	all := MeasureAll(g)
	if len(all) != 3 {
		t.Fatalf("MeasureAll = %d sources", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Score > all[i-1].Score {
			t.Errorf("not sorted by score: %v then %v", all[i-1].Score, all[i].Score)
		}
	}
	if all[0].Source != "a" {
		t.Errorf("richest = %q, want a", all[0].Source)
	}
}

func TestConnectivityFractional(t *testing.T) {
	g := graph.New()
	ids := buildSource(g, "s", 10, 0, 1, true)
	// Connect only the first 4 entities.
	for i := 0; i < 3; i++ {
		g.AddEdge(graph.Edge{From: ids[i], Predicate: "p", To: model.Ref(ids[i+1]), Source: "s"})
	}
	m := Measure(g, "s")
	if math.Abs(m.Connectivity-0.4) > 1e-12 {
		t.Errorf("Connectivity = %v, want 0.4", m.Connectivity)
	}
}

func TestEntropyConstantColumnIsZero(t *testing.T) {
	g := graph.New()
	buildSource(g, "s", 20, 0, 0, false) // only constant "name"
	m := Measure(g, "s")
	if m.ValueEntropy != 0 {
		t.Errorf("constant column entropy = %v", m.ValueEntropy)
	}
}

func TestEdgesCountedBySourceTagAcrossMerges(t *testing.T) {
	g := graph.New()
	a := buildSource(g, "a", 3, 2, 1, true)
	b := buildSource(g, "b", 3, 2, 1, true)
	// Merge one of b's entities into a's: edge source tags survive.
	g.Merge(a[0], b[0])
	m := Measure(g, "b")
	if m.Edges != 2 {
		t.Errorf("source-b edges after merge = %d, want 2", m.Edges)
	}
}

func TestScoreBounds(t *testing.T) {
	// Degenerate inputs must stay in [0,1].
	for _, m := range []Metrics{
		{Entities: 1},
		{Entities: 5, AvgDegree: 1000, ValueEntropy: 1, Connectivity: 1, FillRate: 1},
	} {
		s := Score(m)
		if s < 0 || s > 1 {
			t.Errorf("Score(%+v) = %v", m, s)
		}
	}
	if Score(Metrics{}) != 0 {
		t.Error("empty metrics score must be 0")
	}
}

// TestRowColumnsNotMeasured: a curated entity's attributes are its stored
// row, _key and _types included. A source measures alike whether its
// entities hold those rows or copies without the two columns.
func TestRowColumnsNotMeasured(t *testing.T) {
	rows, plain := graph.New(), graph.New()
	for _, g := range []*graph.Graph{rows, plain} {
		buildSource(g, "rich", 12, 8, 0.5, true)
	}
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("typed-%d", i)
		attrs := model.Record{"name": model.String(fmt.Sprintf("n%d", i%4))}
		if i%3 == 0 {
			attrs["note"] = model.Null()
		}
		row := attrs.Clone()
		row[model.KeyAttr] = model.String(key)
		if i%2 == 0 {
			row[model.TypesAttr] = model.List(model.String("Drug"))
		}
		rows.AddEntity(&model.Entity{Key: key, Source: "typed", Attrs: row, Confidence: 1})
		plain.AddEntity(&model.Entity{Key: key, Source: "typed", Attrs: attrs, Confidence: 1})
	}
	got, want := MeasureAll(rows), MeasureAll(plain)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("measured over stored rows:\n%+v\nover their attributes:\n%+v", got, want)
	}
}
