package fusion

import (
	"math"
	"strings"
	"testing"

	"scdb/internal/model"
	"scdb/internal/ontology"
)

const warfarin = model.EntityID(1)

// warfarinWorlds reproduces the paper's Section 4.2 example: three clinical
// sources with demographically biased populations report different
// effective doses.
func warfarinWorlds() *Worlds {
	o := ontology.New()
	o.SubConceptOf("White", "Population")
	o.SubConceptOf("Asian", "Population")
	o.SubConceptOf("Black", "Population")
	o.Disjoint("White", "Asian")
	o.Disjoint("White", "Black")
	o.Disjoint("Asian", "Black")

	w := New(o)
	w.AddClaim(Claim{Source: "trials-us", Entity: warfarin, Attr: "effective_dose_mg", Value: model.Float(5.1), Context: []string{"White"}})
	w.AddClaim(Claim{Source: "trials-asia", Entity: warfarin, Attr: "effective_dose_mg", Value: model.Float(3.4), Context: []string{"Asian"}})
	w.AddClaim(Claim{Source: "trials-africa", Entity: warfarin, Attr: "effective_dose_mg", Value: model.Float(6.1), Context: []string{"Black"}})
	return w
}

// doseClose is the paper's fuzzy reading of "close to 5.0 mg" for a drug
// with a narrow therapeutic range.
func doseClose(v model.Value) model.Fuzzy {
	f, ok := v.AsFloat()
	if !ok {
		return 0
	}
	return model.Closeness(f, 5.0, 0.5)
}

func TestWarfarinNaiveCertainIsFalse(t *testing.T) {
	w := warfarinWorlds()
	// "Is 5.0 mg an effective dosage?" — naive certain answer: false,
	// because not all sources report ≈5.0 (the paper's exact point).
	got := w.NaiveCertain(warfarin, "effective_dose_mg", func(v model.Value) bool {
		return doseClose(v) > 0
	})
	if got {
		t.Error("naive certain answer must be false")
	}
	// And an attribute nobody claims is trivially not certain.
	if w.NaiveCertain(warfarin, "unknown", func(model.Value) bool { return true }) {
		t.Error("no claims → not certain")
	}
}

func TestWarfarinJustifiedIsTrue(t *testing.T) {
	w := warfarinWorlds()
	j := w.Justified(warfarin, "effective_dose_mg", doseClose)
	// 5.1 is within the band: Closeness(5.1, 5.0, 0.5) = 0.8, so the White
	// context justifies the answer to degree 0.8.
	if math.Abs(float64(j.Degree)-0.8) > 1e-9 {
		t.Errorf("justified degree = %v, want 0.8", j.Degree)
	}
	if len(j.ByContext) != 3 {
		t.Errorf("ByContext = %v", j.ByContext)
	}
	if j.ByContext["Asian"] != 0 || j.ByContext["Black"] != 0 {
		t.Errorf("non-supporting contexts must be 0: %v", j.ByContext)
	}
	if len(j.Evidence) != 1 || j.Evidence[0].Source != "trials-us" {
		t.Errorf("evidence = %v", j.Evidence)
	}
	if !strings.Contains(j.Explanation, "White") || !strings.Contains(j.Explanation, "trials-us") {
		t.Errorf("explanation = %q", j.Explanation)
	}
}

func TestJustifiedNoClaims(t *testing.T) {
	w := warfarinWorlds()
	j := w.Justified(warfarin, "nope", doseClose)
	if j.Degree != 0 || j.Explanation != "no claims" {
		t.Errorf("empty justification = %+v", j)
	}
}

func TestConflictsReconcilable(t *testing.T) {
	w := warfarinWorlds()
	cf := w.Conflicts()
	if len(cf) != 1 {
		t.Fatalf("Conflicts = %v", cf)
	}
	if !cf[0].Reconcilable {
		t.Error("disjoint contexts ⇒ reconcilable parallel worlds")
	}
	// Add a genuinely conflicting claim in the same context.
	w.AddClaim(Claim{Source: "trials-us2", Entity: warfarin, Attr: "effective_dose_mg", Value: model.Float(9.9), Context: []string{"White"}})
	cf = w.Conflicts()
	if cf[0].Reconcilable {
		t.Error("same-context disagreement must not be reconcilable")
	}
}

func TestNoConflictWhenValuesAgree(t *testing.T) {
	o := ontology.New()
	w := New(o)
	w.AddClaim(Claim{Source: "a", Entity: 1, Attr: "x", Value: model.Int(5)})
	w.AddClaim(Claim{Source: "b", Entity: 1, Attr: "x", Value: model.Int(5)})
	if cf := w.Conflicts(); cf != nil {
		t.Errorf("agreeing claims conflict: %v", cf)
	}
	// Agreement also makes the naive certain answer true.
	if !w.NaiveCertain(1, "x", func(v model.Value) bool { i, _ := v.AsInt(); return i == 5 }) {
		t.Error("unanimous claims must be certain")
	}
}

func TestResolveVote(t *testing.T) {
	o := ontology.New()
	w := New(o)
	w.AddClaim(Claim{Source: "a", Entity: 1, Attr: "x", Value: model.Int(1)})
	w.AddClaim(Claim{Source: "b", Entity: 1, Attr: "x", Value: model.Int(2)})
	w.AddClaim(Claim{Source: "c", Entity: 1, Attr: "x", Value: model.Int(2)})
	v, deg, err := w.Resolve(1, "x", PolicyVote)
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.AsInt(); i != 2 {
		t.Errorf("vote winner = %v", v)
	}
	if math.Abs(float64(deg)-2.0/3) > 1e-9 {
		t.Errorf("support = %v", deg)
	}
	if _, _, err := w.Resolve(2, "x", PolicyVote); err == nil {
		t.Error("no claims must error")
	}
}

func TestResolveRichnessWeighted(t *testing.T) {
	o := ontology.New()
	w := New(o)
	// Two poor sources vote for 1; one rich source claims 2.
	w.AddClaim(Claim{Source: "poor1", Entity: 1, Attr: "x", Value: model.Int(1)})
	w.AddClaim(Claim{Source: "poor2", Entity: 1, Attr: "x", Value: model.Int(1)})
	w.AddClaim(Claim{Source: "rich", Entity: 1, Attr: "x", Value: model.Int(2)})
	w.SetRichness("poor1", 0.1)
	w.SetRichness("poor2", 0.1)
	w.SetRichness("rich", 0.9)
	v, _, err := w.Resolve(1, "x", PolicyRichnessWeighted)
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.AsInt(); i != 2 {
		t.Errorf("richness-weighted winner = %v, want the rich source's 2", v)
	}
	// Plain vote still prefers the majority.
	v, _, _ = w.Resolve(1, "x", PolicyVote)
	if i, _ := v.AsInt(); i != 1 {
		t.Errorf("vote winner = %v, want 1", v)
	}
}

func TestResolveMostConfident(t *testing.T) {
	o := ontology.New()
	w := New(o)
	w.AddClaim(Claim{Source: "a", Entity: 1, Attr: "x", Value: model.Int(1), Confidence: 0.4})
	w.AddClaim(Claim{Source: "b", Entity: 1, Attr: "x", Value: model.Int(2), Confidence: 0.9})
	w.AddClaim(Claim{Source: "c", Entity: 1, Attr: "x", Value: model.Int(1), Confidence: 0.5})
	v, _, err := w.Resolve(1, "x", PolicyMostConfident)
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.AsInt(); i != 2 {
		t.Errorf("most confident = %v", v)
	}
}

func TestRichnessWeightingInJustification(t *testing.T) {
	o := ontology.New()
	w := New(o)
	// Same context, conflicting claims: a rich source says "close", a poor
	// one says "far"; the degree reflects the weighted mixture.
	w.AddClaim(Claim{Source: "rich", Entity: 1, Attr: "d", Value: model.Float(5.0)})
	w.AddClaim(Claim{Source: "poor", Entity: 1, Attr: "d", Value: model.Float(9.0)})
	w.SetRichness("rich", 0.9)
	w.SetRichness("poor", 0.1)
	j := w.Justified(1, "d", doseClose)
	if math.Abs(float64(j.Degree)-0.9) > 1e-9 {
		t.Errorf("degree = %v, want 0.9 (rich share)", j.Degree)
	}
}

func TestToCTableBridgesToPossibleWorlds(t *testing.T) {
	w := warfarinWorlds()
	// Give the sources richness so class probabilities are non-uniform.
	w.SetRichness("trials-us", 0.5)
	w.SetRichness("trials-asia", 0.25)
	w.SetRichness("trials-africa", 0.25)
	ct, err := w.ToCTable(warfarin, "effective_dose_mg")
	if err != nil {
		t.Fatal(err)
	}
	if ct.Space.NumWorlds() != 3 {
		t.Fatalf("NumWorlds = %d", ct.Space.NumWorlds())
	}
	// P(some reported dose is within the band) = P(world=White) = 0.5.
	p := ct.QueryProb(func(recs []model.Record) bool {
		for _, r := range recs {
			if doseClose(r["value"]) > 0 {
				return true
			}
		}
		return false
	})
	if math.Abs(p-0.5) > 1e-9 {
		t.Errorf("P(close dose exists) = %g, want 0.5", p)
	}
	// In every world exactly one claim applies.
	if ct.QueryProb(func(recs []model.Record) bool { return len(recs) == 1 }) != 1 {
		t.Error("each world must carry exactly one claim")
	}
	if _, err := w.ToCTable(warfarin, "absent"); err == nil {
		t.Error("no claims must error")
	}
}

func TestGroupByContextMergesOverlapping(t *testing.T) {
	o := ontology.New()
	o.Disjoint("A", "B")
	w := New(o)
	w.AddClaim(Claim{Source: "s1", Entity: 1, Attr: "x", Value: model.Int(1), Context: []string{"A"}})
	w.AddClaim(Claim{Source: "s2", Entity: 1, Attr: "x", Value: model.Int(2), Context: []string{"B"}})
	// No declared disjointness with A or B: joins the first class it does
	// not contradict.
	w.AddClaim(Claim{Source: "s3", Entity: 1, Attr: "x", Value: model.Int(3), Context: []string{"C"}})
	ct, err := w.ToCTable(1, "x")
	if err != nil {
		t.Fatal(err)
	}
	if ct.Space.NumWorlds() != 2 {
		t.Errorf("expected 2 context classes (A+C, B), got %d", ct.Space.NumWorlds())
	}
}
