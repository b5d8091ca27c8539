package optimizer

import (
	"strings"
	"testing"

	"scdb/internal/query"
)

func TestConstantFoldingAllOperators(t *testing.T) {
	rep := &Report{}
	cases := []struct {
		src  string
		want string
	}{
		{"x = 1 + 2", "3"},
		{"x = 5 - 2", "3"},
		{"x = 2 * 3", "6"},
		{"x = 6 / 2", "3"},
		{"x = 1.5 + 1.5", "3"},
		{"3 = 3", "true"},
		{"3 != 3", "false"},
		{"2 < 3", "true"},
		{"3 <= 2", "false"},
		{"3 > 2", "true"},
		{"2 >= 3", "false"},
		{"x = 1 / 0", "null"},
		{"x = 'a' + 'b'", "'ab'"},
	}
	for _, c := range cases {
		stmt, err := query.Parse("SELECT * FROM drugs WHERE " + c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		folded := foldConstants(stmt.Where, rep)
		if !strings.Contains(folded.String(), c.want) {
			t.Errorf("fold(%s) = %s, want %s inside", c.src, folded, c.want)
		}
	}
	// Mixed-kind constant comparison is left alone (evaluates at runtime).
	stmt, _ := query.Parse("SELECT * FROM drugs WHERE 'a' = 1")
	folded := foldConstants(stmt.Where, rep)
	if _, ok := folded.(*query.Literal); ok {
		t.Errorf("incomparable constants must not fold: %s", folded)
	}
}

func TestBooleanIdentityAllForms(t *testing.T) {
	rep := &Report{}
	for src, want := range map[string]string{
		"TRUE AND dose > 1":  "dose",
		"dose > 1 AND TRUE":  "dose",
		"FALSE AND dose > 1": "false",
		"TRUE OR dose > 1":   "true",
		"dose > 1 OR FALSE":  "dose",
		"FALSE OR dose > 1":  "dose",
	} {
		stmt, err := query.Parse("SELECT * FROM drugs WHERE " + src)
		if err != nil {
			t.Fatal(err)
		}
		folded := foldConstants(stmt.Where, rep)
		if !strings.Contains(folded.String(), want) {
			t.Errorf("fold(%s) = %s, want to contain %s", src, folded, want)
		}
	}
	// NOT of a literal.
	stmt, _ := query.Parse("SELECT * FROM drugs WHERE NOT TRUE")
	folded := foldConstants(stmt.Where, rep)
	if l, ok := folded.(*query.Literal); !ok {
		t.Errorf("NOT TRUE = %s", folded)
	} else if b, _ := l.Val.AsBool(); b {
		t.Error("NOT TRUE must fold to false")
	}
	// Unary minus of a folded literal.
	stmt, _ = query.Parse("SELECT * FROM drugs WHERE dose = -(2 + 3)")
	folded = foldConstants(stmt.Where, rep)
	if !strings.Contains(folded.String(), "-5") {
		t.Errorf("-(2+3) = %s", folded)
	}
}

func TestRewriteExprsReachesAllNodes(t *testing.T) {
	// GroupBy, OrderBy, Items, Join ON, and Limit inputs must all be
	// visited by the folding pass.
	stmt, err := query.Parse(`SELECT gene, COUNT(*) + (1+1) AS n FROM targets AS t JOIN drugs AS d ON d.name = t.drug AND 1 = 1 WHERE 2 = 2 GROUP BY gene ORDER BY n DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := query.BuildPlan(stmt, fixtureResolver())
	if err != nil {
		t.Fatal(err)
	}
	opt, rep := Optimize(p, defaultOpts())
	ex := query.Explain(opt)
	if strings.Contains(ex, "(1 + 1)") || strings.Contains(ex, "(2 = 2)") {
		t.Errorf("unfolded constants survive:\n%s", ex)
	}
	if len(rep.Rules) == 0 {
		t.Error("no rules reported")
	}
}

func TestPushdownConservativeOnUnqualifiedRefs(t *testing.T) {
	// An unqualified column reference cannot be attributed to one side, so
	// the conjunct must stay above the join.
	stmt, err := query.Parse(`SELECT d.name FROM drugs AS d JOIN targets AS t ON d.name = t.drug WHERE gene = 'DHFR'`)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := query.BuildPlan(stmt, fixtureResolver())
	opt, _ := Optimize(p, defaultOpts())
	ex := query.Explain(opt)
	filterLine := strings.Index(ex, "Filter")
	joinLine := strings.Index(ex, "Join")
	if filterLine == -1 || joinLine == -1 || filterLine > joinLine {
		t.Errorf("unqualified filter must stay above the join:\n%s", ex)
	}
}

func TestPushdownFunctionArgs(t *testing.T) {
	// Function-wrapped single-side predicates still push down.
	stmt, err := query.Parse(`SELECT d.name FROM drugs AS d JOIN targets AS t ON d.name = t.drug WHERE LOWER(t.gene) = 'dhfr' AND (d.dose IS NOT NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := query.BuildPlan(stmt, fixtureResolver())
	_, rep := Optimize(p, defaultOpts())
	pushes := 0
	for _, r := range rep.Rules {
		if strings.Contains(r, "pushdown") {
			pushes++
		}
	}
	if pushes != 2 {
		t.Errorf("pushdowns = %d, rules = %v", pushes, rep.Rules)
	}
}

func TestUnsatisfiableConceptScan(t *testing.T) {
	o := onto()
	// Weird ⊑ Drug ⊓ Neoplasms is unsatisfiable (Chemical/Disease).
	o.SubConceptOf("Weird", "Drug")
	o.SubConceptOf("Weird", "Neoplasms")
	res := fixtureResolver()
	res.concepts["Weird"] = true
	stmt, err := query.Parse(`SELECT * FROM Weird`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := query.BuildPlan(stmt, res)
	if err != nil {
		t.Fatal(err)
	}
	opts := defaultOpts()
	opts.Semantics = o
	opt, rep := Optimize(p, opts)
	if !hasEmpty(opt) {
		t.Errorf("unsatisfiable concept scan survived:\n%s\nrules: %v", query.Explain(opt), rep.Rules)
	}
}

func TestEstimateCardEdgeCases(t *testing.T) {
	opts := defaultOpts()
	if c := EstimateCard(&query.EmptyNode{Reason: "r"}, opts); c != 0 {
		t.Errorf("empty card = %d", c)
	}
	// Without stats, defaults apply.
	if c := EstimateCard(&query.ScanNode{Table: "t", Binding: "t"}, Options{}); c != 1000 {
		t.Errorf("default scan card = %d", c)
	}
	if c := EstimateCard(&query.ConceptScanNode{Concept: "X", Binding: "x"}, Options{}); c != 1000 {
		t.Errorf("default concept card = %d", c)
	}
	// A function is not the table of its name.
	if c := EstimateCard(&query.ScanNode{Table: "drugs", Binding: "drugs", Call: true}, opts); c != 1000 {
		t.Errorf("function card = %d, want the default", c)
	}
	// Concept without stats falls back to total entities.
	o := onto()
	if c := EstimateCard(&query.ConceptScanNode{Concept: "Unknown", Binding: "x"}, Options{Semantics: o, Stats: stats{}}); c != 1000 {
		t.Errorf("unknown concept card = %d", c)
	}
	// Non-equi join estimates the cross product.
	stmt, _ := query.Parse(`SELECT d.name FROM drugs AS d JOIN targets AS t ON d.dose > 1`)
	p, _ := query.BuildPlan(stmt, fixtureResolver())
	join := findJoin(p)
	if join == nil {
		t.Fatal("no join in plan")
	}
	if c := EstimateCard(join, opts); c != 500*50 {
		t.Errorf("cross join card = %d", c)
	}
	// Cost of a non-equi join includes the quadratic scan.
	if cost := EstimateCost(join, opts); cost < 500*50 {
		t.Errorf("non-equi join cost = %v", cost)
	}
	// Aggregate without GROUP BY is one row.
	stmt, _ = query.Parse(`SELECT COUNT(*) FROM drugs`)
	p, _ = query.BuildPlan(stmt, fixtureResolver())
	if c := EstimateCard(p, opts); c != 1 {
		t.Errorf("global aggregate card = %d", c)
	}
}

func findJoin(n query.Node) query.Node {
	if _, ok := n.(*query.JoinNode); ok {
		return n
	}
	for _, c := range query.Children(n) {
		if j := findJoin(c); j != nil {
			return j
		}
	}
	return nil
}

func TestSelectivityHeuristics(t *testing.T) {
	opts := defaultOpts()
	mk := func(src string) query.Expr {
		stmt, err := query.Parse("SELECT * FROM drugs WHERE " + src)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.Where
	}
	eq := conjunctSelectivity(mk("name = 'x'"), opts)
	ne := conjunctSelectivity(mk("name != 'x'"), opts)
	rng := conjunctSelectivity(mk("dose > 1"), opts)
	like := conjunctSelectivity(mk("name LIKE 'x%'"), opts)
	isNull := conjunctSelectivity(mk("dose IS NULL"), opts)
	if !(eq < rng && rng < ne) {
		t.Errorf("selectivity ordering broken: eq=%v rng=%v ne=%v", eq, rng, ne)
	}
	if like <= 0 || like >= 1 || isNull <= 0 || isNull >= 1 {
		t.Errorf("like=%v isNull=%v", like, isNull)
	}
	// ISA selectivity uses ontology statistics.
	isa := conjunctSelectivity(mk("ISA(id, 'Approved Drugs')"), opts)
	if isa != 20.0/1000 {
		t.Errorf("ISA selectivity = %v", isa)
	}
}

func TestFoldInListAndLike(t *testing.T) {
	rep := &Report{}
	stmt, _ := query.Parse("SELECT * FROM drugs WHERE (1+1) IN (2, 3) AND name LIKE 'a%' AND dose IS NULL")
	folded := foldConstants(stmt.Where, rep)
	if !strings.Contains(folded.String(), "2 IN") {
		t.Errorf("IN operand not folded: %s", folded)
	}
}

// TestFunctionScanKeepsItsFilter: a function has no access path, so a
// sargable filter over a call stays a filter; over a table it fuses.
func TestFunctionScanKeepsItsFilter(t *testing.T) {
	for _, c := range []struct {
		src  string
		fuse bool
	}{
		{`SELECT name FROM drugs WHERE dose > 5`, true},
		{`SELECT name FROM drugs() WHERE dose > 5`, false},
	} {
		stmt, err := query.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := query.BuildPlan(stmt, fixtureResolver())
		if err != nil {
			t.Fatal(err)
		}
		opt, _ := Optimize(p, defaultOpts())
		if fused := strings.Contains(query.Explain(opt), "IndexScan"); fused != c.fuse {
			t.Errorf("%s fused into an IndexScan: %v\n%s", c.src, fused, query.Explain(opt))
		}
	}
}
