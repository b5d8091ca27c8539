package optimizer

import (
	"fmt"
	"strings"
	"testing"

	"scdb/internal/model"
	"scdb/internal/ontology"
	"scdb/internal/query"
)

// fixtures ------------------------------------------------------------

func onto() *ontology.Ontology {
	o := ontology.New()
	o.SubConceptOf("Approved Drugs", "Drug")
	o.SubConceptOf("Drug", "Chemical")
	o.SubConceptOf("Neoplasms", "Disease")
	o.Disjoint("Chemical", "Disease")
	o.SetInstanceCount("Drug", 100)
	o.SetInstanceCount("Approved Drugs", 20)
	o.SetInstanceCount("Neoplasms", 50)
	return o
}

type stats struct{ tables map[string]int }

func (s stats) TableCard(name string) int { return s.tables[name] }
func (s stats) TotalEntities() int        { return 1000 }

type resolver struct {
	tables   map[string]bool
	concepts map[string]bool
}

func (r resolver) HasTable(n string) bool   { return r.tables[n] }
func (r resolver) HasConcept(n string) bool { return r.concepts[n] }

func fixtureResolver() resolver {
	return resolver{
		tables:   map[string]bool{"drugs": true, "targets": true},
		concepts: map[string]bool{"Drug": true, "Chemical": true, "Disease": true, "Approved Drugs": true, "Neoplasms": true},
	}
}

func plan(t *testing.T, src string) query.Node {
	t.Helper()
	stmt, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := query.BuildPlan(stmt, fixtureResolver())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func defaultOpts() Options {
	return Options{Explain: true, Semantics: onto(), Stats: stats{tables: map[string]int{"drugs": 500, "targets": 50}}}
}

// TestRulesOnlyWhenExplained: without Explain the optimizer logs nothing and
// rewrites the plan exactly as it does with the log on.
func TestRulesOnlyWhenExplained(t *testing.T) {
	const q = `SELECT name FROM drugs AS d JOIN targets AS t ON d.id = t.drug WHERE d.dose > 2 + 3 AND ISA(d.id, 'Drug') AND ISA(d.id, 'Chemical') ORDER BY name LIMIT 3`
	logged, rep := Optimize(plan(t, q), defaultOpts())
	quiet := defaultOpts()
	quiet.Explain = false
	silent, srep := Optimize(plan(t, q), quiet)
	if len(rep.Rules) == 0 || len(srep.Rules) != 0 {
		t.Errorf("rules with Explain %v, without %v", rep.Rules, srep.Rules)
	}
	if query.Explain(logged) != query.Explain(silent) || rep.EstimatedCost != srep.EstimatedCost {
		t.Errorf("the log changed the plan:\n%s\nvs\n%s", query.Explain(logged), query.Explain(silent))
	}
}

func hasRule(rep *Report, substr string) bool {
	for _, r := range rep.Rules {
		if strings.Contains(r, substr) {
			return true
		}
	}
	return false
}

func hasEmpty(n query.Node) bool {
	if _, ok := n.(*query.EmptyNode); ok {
		return true
	}
	for _, c := range query.Children(n) {
		if hasEmpty(c) {
			return true
		}
	}
	return false
}

// tests ----------------------------------------------------------------

func TestConstantFolding(t *testing.T) {
	p := plan(t, "SELECT name FROM drugs WHERE dose > 2 + 3")
	opt, rep := Optimize(p, defaultOpts())
	if !hasRule(rep, "fold") {
		t.Errorf("expected folding, rules = %v", rep.Rules)
	}
	if strings.Contains(query.Explain(opt), "2 + 3") {
		t.Errorf("unfolded constant remains:\n%s", query.Explain(opt))
	}
	if !strings.Contains(query.Explain(opt), "5") {
		t.Errorf("folded literal missing:\n%s", query.Explain(opt))
	}
}

func TestBooleanIdentityFolding(t *testing.T) {
	p := plan(t, "SELECT name FROM drugs WHERE TRUE AND dose > 1")
	opt, rep := Optimize(p, defaultOpts())
	if !hasRule(rep, "TRUE AND x") {
		t.Errorf("rules = %v", rep.Rules)
	}
	if strings.Contains(query.Explain(opt), "true AND") {
		t.Errorf("identity not simplified:\n%s", query.Explain(opt))
	}
}

func TestRedundantISACollapse(t *testing.T) {
	// ISA(Chemical) is implied by ISA(Approved Drugs).
	p := plan(t, `SELECT name FROM drugs WHERE ISA(id, 'Approved Drugs') AND ISA(id, 'Chemical')`)
	opt, rep := Optimize(p, defaultOpts())
	if !hasRule(rep, "collapse") {
		t.Fatalf("expected collapse, rules = %v", rep.Rules)
	}
	ex := query.Explain(opt)
	if strings.Contains(ex, "Chemical") {
		t.Errorf("redundant ISA survived:\n%s", ex)
	}
	if !strings.Contains(ex, "Approved Drugs") {
		t.Errorf("specific ISA lost:\n%s", ex)
	}
}

func TestDisjointISAYieldsEmpty(t *testing.T) {
	p := plan(t, `SELECT name FROM drugs WHERE ISA(id, 'Drug') AND ISA(id, 'Disease')`)
	opt, rep := Optimize(p, defaultOpts())
	if !hasEmpty(opt) {
		t.Fatalf("disjoint ISA must produce an Empty node:\n%s", query.Explain(opt))
	}
	if !hasRule(rep, "unsat") {
		t.Errorf("rules = %v", rep.Rules)
	}
	if rep.EstimatedCost > 1 {
		t.Errorf("empty plan cost = %v", rep.EstimatedCost)
	}
}

func TestConceptScanTightening(t *testing.T) {
	// FROM Drug WHERE ISA(_id, 'Approved Drugs') → scan Approved Drugs.
	p := plan(t, `SELECT name FROM Drug AS d WHERE ISA(d._id, 'Approved Drugs')`)
	opt, rep := Optimize(p, defaultOpts())
	ex := query.Explain(opt)
	if !strings.Contains(ex, `ConceptScan "Approved Drugs"`) {
		t.Errorf("scan not tightened:\n%s\nrules: %v", ex, rep.Rules)
	}
	if strings.Contains(ex, "Filter") {
		t.Errorf("tightening should remove the filter:\n%s", ex)
	}
}

func TestConceptScanRedundantSuperclass(t *testing.T) {
	// Scanning Drug already implies ISA Chemical.
	p := plan(t, `SELECT name FROM Drug AS d WHERE ISA(d._id, 'Chemical')`)
	opt, rep := Optimize(p, defaultOpts())
	ex := query.Explain(opt)
	if strings.Contains(ex, "Filter") {
		t.Errorf("redundant superclass filter survived:\n%s\nrules: %v", ex, rep.Rules)
	}
}

func TestConceptScanDisjointEmpty(t *testing.T) {
	p := plan(t, `SELECT name FROM Drug AS d WHERE ISA(d._id, 'Neoplasms')`)
	opt, _ := Optimize(p, defaultOpts())
	if !hasEmpty(opt) {
		t.Errorf("disjoint scan/ISA must be empty:\n%s", query.Explain(opt))
	}
}

func TestPredicatePushdown(t *testing.T) {
	p := plan(t, `SELECT d.name FROM drugs AS d JOIN targets AS t ON d.name = t.drug WHERE d.dose > 5 AND t.gene = 'DHFR'`)
	opt, rep := Optimize(p, defaultOpts())
	if !hasRule(rep, "pushdown") {
		t.Fatalf("rules = %v", rep.Rules)
	}
	// Both conjuncts must sit below the join now.
	ex := query.Explain(opt)
	joinLine := strings.Index(ex, "Join")
	doseLine := strings.Index(ex, "d.dose")
	geneLine := strings.Index(ex, "t.gene")
	if doseLine < joinLine || geneLine < joinLine {
		t.Errorf("filters not below join:\n%s", ex)
	}
}

func TestJoinOrdering(t *testing.T) {
	// drugs (500) joined to targets (50): targets should become the left
	// (smaller) input.
	p := plan(t, `SELECT d.name FROM drugs AS d JOIN targets AS t ON d.name = t.drug`)
	opt, rep := Optimize(p, defaultOpts())
	ex := query.Explain(opt)
	ti := strings.Index(ex, "Scan targets")
	di := strings.Index(ex, "Scan drugs")
	if ti == -1 || di == -1 || ti > di {
		t.Errorf("join inputs not reordered:\n%s\nrules: %v", ex, rep.Rules)
	}
	if !hasRule(rep, "reorder") {
		t.Errorf("rules = %v", rep.Rules)
	}
}

func TestDisableSemantic(t *testing.T) {
	p := plan(t, `SELECT name FROM drugs WHERE ISA(id, 'Drug') AND ISA(id, 'Disease')`)
	opts := defaultOpts()
	opts.DisableSemantic = true
	opt, rep := Optimize(p, opts)
	if hasEmpty(opt) {
		t.Error("semantic rewrites ran despite being disabled")
	}
	if hasRule(rep, "unsat") {
		t.Errorf("rules = %v", rep.Rules)
	}
}

func TestDisableClassic(t *testing.T) {
	p := plan(t, "SELECT name FROM drugs WHERE dose > 2 + 3")
	opts := defaultOpts()
	opts.DisableClassic = true
	_, rep := Optimize(p, opts)
	if hasRule(rep, "fold") {
		t.Errorf("classic rules ran despite being disabled: %v", rep.Rules)
	}
}

func TestSemanticSelectivityLowersCost(t *testing.T) {
	// The optimizer knows |Approved Drugs| = 20 ≪ 1000 entities; an ISA
	// filter over a table scan should therefore estimate far fewer rows
	// than the no-statistics default.
	p := plan(t, `SELECT name FROM drugs WHERE ISA(id, 'Approved Drugs')`)
	optWith, repWith := Optimize(p, defaultOpts())
	noSem := defaultOpts()
	noSem.Semantics = nil
	_, repWithout := Optimize(plan(t, `SELECT name FROM drugs WHERE ISA(id, 'Approved Drugs')`), noSem)
	if repWith.EstimatedCost >= repWithout.EstimatedCost {
		t.Errorf("semantic selectivity must lower cost: %v vs %v", repWith.EstimatedCost, repWithout.EstimatedCost)
	}
	_ = optWith
}

func TestEstimateCardShapes(t *testing.T) {
	opts := defaultOpts()
	cases := []struct {
		src      string
		min, max int
	}{
		{"SELECT * FROM drugs", 500, 500},
		{"SELECT * FROM Drug", 100, 100}, // from ontology stats
		{"SELECT * FROM drugs LIMIT 3", 3, 3},
		{"SELECT COUNT(*) FROM drugs", 1, 1},
		{"SELECT name FROM drugs WHERE name = 'x'", 1, 100},
	}
	for _, c := range cases {
		p := plan(t, c.src)
		card := EstimateCard(p, opts)
		if card < c.min || card > c.max {
			t.Errorf("EstimateCard(%q) = %d, want [%d,%d]", c.src, card, c.min, c.max)
		}
	}
}

func TestOptimizedPlanStillCorrect(t *testing.T) {
	// End-to-end: the rewritten plan must return the same rows.
	env := &execEnv{}
	stmt, err := query.Parse(`SELECT name FROM drugs WHERE ISA(id, 'Drug') AND ISA(id, 'Chemical') AND dose > 1`)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := query.BuildPlan(stmt, fixtureResolver())
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := Optimize(raw, defaultOpts())
	rRaw, _, err := query.ExecuteOpts(raw, env, query.ExecOptions{Semantic: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	rOpt, _, err := query.ExecuteOpts(opt, env, query.ExecOptions{Semantic: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rRaw.Rows) != len(rOpt.Rows) {
		t.Errorf("optimization changed results: %d vs %d rows", len(rRaw.Rows), len(rOpt.Rows))
	}
}

// TestEquiJoinCostsTheJoinThatRuns: the cost model prices a join by the
// executor's rule (query.EquiJoinCols). ON d.id = t.drug is hashed and
// estimated at the larger side; ON id = drug runs as a nested loop and is
// estimated at the cross product. Both answer alike.
func TestEquiJoinCostsTheJoinThatRuns(t *testing.T) {
	opts := defaultOpts() // drugs 500 rows, targets 50
	var answers []string
	for _, c := range []struct {
		on   string
		card int
	}{{"d.id = t.drug", 500}, {"id = drug", 500 * 50}} {
		p := plan(t, "SELECT name, gene FROM drugs AS d JOIN targets AS t ON "+c.on+" ORDER BY name, gene")
		join := p
		for ; join != nil; join = query.Children(join)[0] {
			if _, ok := join.(*query.JoinNode); ok {
				break
			}
		}
		if got := EstimateCard(join, opts); got != c.card {
			t.Errorf("ON %s: EstimateCard = %d, want %d", c.on, got, c.card)
		}
		res, _, err := query.ExecuteOpts(p, &execEnv{}, query.ExecOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("ON %s: %v", c.on, err)
		}
		answers = append(answers, fmt.Sprint(res.Rows))
	}
	if answers[0] != answers[1] || !strings.Contains(answers[0], "VKORC1") {
		t.Errorf("the hashed join answers %s, the nested loop %s", answers[0], answers[1])
	}
}

// execEnv is a minimal Env for the correctness check.
type execEnv struct{}

func (execEnv) ScanTable(name string, _ []model.Conjunct, size int) (query.ScanCursor, bool) {
	switch name {
	case "drugs":
		return &query.RecordChunks{Recs: []model.Record{
			{"name": model.String("Warfarin"), "dose": model.Float(5.1), "id": model.Ref(1)},
			{"name": model.String("Inert"), "dose": model.Float(0.5), "id": model.Ref(2)},
		}, Size: size}, true
	case "targets":
		return &query.RecordChunks{Recs: []model.Record{
			{"drug": model.Ref(1), "gene": model.String("VKORC1")},
			{"drug": model.Ref(1), "gene": model.String("CYP2C9")},
			{"drug": model.Ref(3), "gene": model.String("ABCB1")},
		}, Size: size}, true
	}
	return nil, false
}
func (execEnv) ScanConcept(string, bool, int) (query.ScanCursor, bool) { return nil, false }
func (execEnv) ScanFunction(name string, _ []model.Value, _ int) (query.ScanCursor, error) {
	return nil, fmt.Errorf("no function %s", name)
}
func (execEnv) IsA(v model.Value, concept string, semantic bool) model.Truth {
	id, ok := v.AsRef()
	if !ok {
		return model.Unknown
	}
	return model.TruthOf(id == 1 && (concept == "Drug" || concept == "Chemical"))
}
func (execEnv) Reaches(model.Value, string, int, string, bool) model.Truth { return model.False }
func (execEnv) Linked(model.Value, model.Value, string, bool) model.Truth  { return model.False }
func (execEnv) TypesOf(model.Value, bool) model.Value                      { return model.Null() }
func (execEnv) PredictType(model.Value) model.Value                        { return model.Null() }
