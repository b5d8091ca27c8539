package query

import (
	"strings"
	"testing"

	"scdb/internal/model"
)

// Additional coverage: unary ops, OR/NOT, literal edge cases, TYPES and
// LINKED, aggregate arithmetic, and Explain labels.

func TestUnaryNegationAndNot(t *testing.T) {
	res := mustRun(t, "SELECT -dose AS neg FROM drugs WHERE name = 'Warfarin'")
	if f, _ := res.Rows[0][0].AsFloat(); f != -5.1 {
		t.Errorf("neg = %v", res.Rows[0][0])
	}
	res = mustRun(t, "SELECT name FROM drugs WHERE NOT (dose > 6)")
	// Warfarin (5.1) qualifies; Mystery's null comparison is Unknown and
	// NOT Unknown stays Unknown — dropped.
	if len(res.Rows) != 1 || !model.Equal(res.Rows[0][0], model.String("Warfarin")) {
		t.Errorf("NOT rows = %v", res.Rows)
	}
	// Double negation of an integer literal.
	res = mustRun(t, "SELECT -(-3) AS x FROM drugs LIMIT 1")
	if v, _ := res.Rows[0][0].AsInt(); v != 3 {
		t.Errorf("-(-3) = %v", res.Rows[0][0])
	}
	if _, err := runQuery("SELECT -name FROM drugs"); err == nil {
		t.Error("negating a string must fail")
	}
	if _, err := runQuery("SELECT name FROM drugs WHERE NOT name"); err == nil {
		t.Error("NOT over a string must fail")
	}
}

func TestOrShortCircuitAndThreeValued(t *testing.T) {
	// TRUE OR <error-free unknown> = TRUE even when dose is null.
	res := mustRun(t, "SELECT name FROM drugs WHERE name = 'Mystery' OR dose > 1000")
	if len(res.Rows) != 1 {
		t.Errorf("OR rows = %v", res.Rows)
	}
	// Unknown OR False = Unknown → dropped.
	res = mustRun(t, "SELECT name FROM drugs WHERE dose > 1000 OR name = 'Nope'")
	if len(res.Rows) != 0 {
		t.Errorf("unknown OR false rows = %v", res.Rows)
	}
}

func TestLiteralForms(t *testing.T) {
	res := mustRun(t, "SELECT name FROM drugs WHERE TRUE AND name = 'Warfarin'")
	if len(res.Rows) != 1 {
		t.Errorf("TRUE literal rows = %v", res.Rows)
	}
	res = mustRun(t, "SELECT name FROM drugs WHERE FALSE OR name = 'Warfarin'")
	if len(res.Rows) != 1 {
		t.Errorf("FALSE literal rows = %v", res.Rows)
	}
	// NULL literal in a comparison: no row qualifies.
	res = mustRun(t, "SELECT name FROM drugs WHERE dose = NULL")
	if len(res.Rows) != 0 {
		t.Errorf("= NULL rows = %v", res.Rows)
	}
	// Negative literals in IN lists.
	res = mustRun(t, "SELECT name FROM drugs WHERE dose IN (-1, 5.1)")
	if len(res.Rows) != 1 {
		t.Errorf("negative IN rows = %v", res.Rows)
	}
	// NULL in an IN list makes non-matches Unknown, not False.
	res = mustRun(t, "SELECT name FROM drugs WHERE dose IN (NULL, 5.1)")
	if len(res.Rows) != 1 {
		t.Errorf("IN with NULL rows = %v", res.Rows)
	}
}

func TestTypesFunction(t *testing.T) {
	res := mustRun(t, "SELECT TYPES(id) AS ts FROM drugs WHERE name = 'Warfarin'")
	l, ok := res.Rows[0][0].AsList()
	if !ok || len(l) != 1 || !model.Equal(l[0], model.String("Drug")) {
		t.Errorf("TYPES = %v", res.Rows[0][0])
	}
	res = mustRun(t, "SELECT TYPES(id) AS ts FROM drugs WHERE name = 'Warfarin' WITH SEMANTICS")
	if l, _ := res.Rows[0][0].AsList(); len(l) != 2 {
		t.Errorf("semantic TYPES = %v", res.Rows[0][0])
	}
	// LENGTH over the list.
	res = mustRun(t, "SELECT LENGTH(TYPES(id)) AS n FROM drugs WHERE name = 'Warfarin' WITH SEMANTICS")
	if n, _ := res.Rows[0][0].AsInt(); n != 2 {
		t.Errorf("LENGTH(TYPES) = %v", res.Rows[0][0])
	}
}

func TestPredictFunction(t *testing.T) {
	res := mustRun(t, "SELECT PREDICT(id) AS p FROM drugs WHERE name = 'Warfarin'")
	if !model.Equal(res.Rows[0][0], model.String("Drug")) {
		t.Errorf("PREDICT = %v", res.Rows[0][0])
	}
	// Non-ref argument yields null (dropped by comparisons, no error).
	res = mustRun(t, "SELECT name FROM drugs WHERE PREDICT(name) = 'Drug'")
	if len(res.Rows) != 0 {
		t.Errorf("PREDICT over string rows = %v", res.Rows)
	}
	if _, err := runQuery("SELECT PREDICT(id, id) FROM drugs"); err == nil {
		t.Error("PREDICT arity must be checked")
	}
}

func TestLinkedFunction(t *testing.T) {
	// fakeEnv's Linked: a+1 == b.
	res := mustRun(t, "SELECT a.name, b.name FROM drugs AS a JOIN drugs AS b ON LINKED(a.id, b.id)")
	if len(res.Rows) != 3 {
		t.Errorf("LINKED join rows = %v", res.Rows)
	}
	if _, err := runQuery("SELECT name FROM drugs WHERE LINKED(id)"); err == nil {
		t.Error("LINKED arity must be checked")
	}
}

func TestAggregateArithmetic(t *testing.T) {
	res := mustRun(t, "SELECT MAX(dose) - MIN(dose) AS spread FROM drugs")
	if f, _ := res.Rows[0][0].AsFloat(); f < 194.8 || f > 195 {
		t.Errorf("spread = %v", res.Rows[0][0])
	}
	res = mustRun(t, "SELECT COUNT(*) * 2 AS double FROM drugs")
	if n, _ := res.Rows[0][0].AsInt(); n != 8 {
		t.Errorf("COUNT*2 = %v", res.Rows[0][0])
	}
	res = mustRun(t, "SELECT COUNT(dose) AS n FROM drugs")
	if n, _ := res.Rows[0][0].AsInt(); n != 3 {
		t.Errorf("COUNT(dose) skips nulls: %v", res.Rows[0][0])
	}
	if _, err := runQuery("SELECT SUM(name) FROM drugs"); err == nil {
		t.Error("SUM over strings must fail")
	}
	if _, err := runQuery("SELECT SUM(*) FROM drugs"); err == nil {
		t.Error("SUM(*) must fail")
	}
	if _, err := runQuery("SELECT COUNT(name, dose) FROM drugs"); err == nil {
		t.Error("aggregate arity must be checked")
	}
}

// The planner admits an aggregate under any operator (ContainsAggregate);
// grouped evaluation must reach it under the same operators.
func TestAggregateUnderEveryOperator(t *testing.T) {
	for src, want := range map[string]model.Value{
		"SELECT ABS(COUNT(dose) - COUNT(*) * 2) AS v FROM drugs":                  model.Int(5),
		"SELECT SUM(dose) IS NULL AS v FROM drugs WHERE dose > 99999":             model.Bool(true),
		"SELECT -COUNT(*) AS v FROM drugs":                                        model.Int(-4),
		"SELECT COUNT(*) IN (3, 4) AS v FROM drugs":                               model.Bool(true),
		"SELECT MIN(name) LIKE 'ibu%' AS v FROM drugs":                            model.Bool(true),
		"SELECT COALESCE(SUM(dose), COUNT(*)) AS v FROM drugs WHERE dose > 99999": model.Int(0),
		// No group row to read, but a constant is still itself.
		"SELECT COUNT(*) - 2 AS v FROM drugs WHERE dose > 99999": model.Int(-2),
	} {
		res := mustRun(t, src)
		if len(res.Rows) != 1 || !model.Equal(res.Rows[0][0], want) {
			t.Errorf("%s = %v, want %v", src, res.Rows, want)
		}
	}
	for src, want := range map[string]int{
		"SELECT gene, COUNT(*) AS n FROM targets GROUP BY gene HAVING NOT (COUNT(*) < 2)":      1,
		"SELECT gene, COUNT(*) AS n FROM targets GROUP BY gene HAVING COUNT(*) IN (1)":         2,
		"SELECT gene FROM targets GROUP BY gene HAVING MAX(drug) LIKE 'i%'":                    1,
		"SELECT gene FROM targets GROUP BY gene HAVING LENGTH(MIN(drug)) > 8 AND COUNT(*) = 1": 1,
	} {
		if res := mustRun(t, src); len(res.Rows) != want {
			t.Errorf("%s: %d rows, want %d: %v", src, len(res.Rows), want, res.Rows)
		}
	}
	// A failing aggregate fails however deep the call sits.
	if _, err := runQuery("SELECT gene FROM targets GROUP BY gene HAVING SUM(drug) IS NULL"); err == nil {
		t.Error("SUM over strings under IS NULL must fail")
	}
	// Sort runs over output columns, so an aggregate there stays an error.
	if _, err := runQuery("SELECT gene FROM targets GROUP BY gene ORDER BY COUNT(*)"); err == nil {
		t.Error("ORDER BY over an aggregate call must fail; use the alias")
	}
}

// A RowsNode leaf binds dotted labels under their qualifier too, and a plan
// over it runs without an Env.
func TestRowsNode(t *testing.T) {
	rows := &RowsNode{
		Cols: []string{"a.key", "n"},
		Rows: [][]model.Value{
			{model.String("k2"), model.Int(1)},
			{model.String("k1"), model.Int(2)},
			{model.String("k1"), model.Int(2)},
		},
	}
	var plan Node = &DistinctNode{Input: rows}
	plan = &SortNode{Input: plan, Keys: []OrderKey{{Expr: &ColRef{Binding: "a", Name: "key"}}, {Expr: &ColRef{Name: "n"}, Desc: true}}}
	res, _, err := ExecuteOpts(plan, nil, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || !model.Equal(res.Rows[0][0], model.String("k1")) || !model.Equal(res.Rows[1][1], model.Int(1)) {
		t.Errorf("rows = %v (columns %v)", res.Rows, res.Columns)
	}
	if _, _, err := ExecuteOpts(&SortNode{Input: rows, Keys: []OrderKey{{Expr: &ColRef{Name: "key"}}}}, nil, ExecOptions{Parallelism: 1}); err != nil {
		t.Errorf("unqualified reference to a dotted label: %v", err)
	}
	graph := &ProjectNode{Input: rows, Items: []SelectItem{{Expr: &Call{Name: "ISA", Args: []Expr{&ColRef{Name: "n"}, &Literal{Val: model.String("Drug")}}}}}}
	if _, _, err := ExecuteOpts(graph, nil, ExecOptions{Parallelism: 1}); err == nil || !strings.Contains(err.Error(), "entity graph") {
		t.Errorf("graph builtin without an Env: err = %v", err)
	}
}

func TestGroupByMinMaxStrings(t *testing.T) {
	res := mustRun(t, "SELECT MIN(name) AS lo, MAX(name) AS hi FROM drugs")
	if !model.Equal(res.Rows[0][0], model.String("Ibuprofen")) {
		t.Errorf("MIN(name) = %v", res.Rows[0][0])
	}
	if !model.Equal(res.Rows[0][1], model.String("Warfarin")) {
		t.Errorf("MAX(name) = %v", res.Rows[0][1])
	}
	// Aggregates over an empty group input are null.
	res = mustRun(t, "SELECT MIN(dose) AS lo FROM drugs WHERE dose > 99999")
	if !res.Rows[0][0].IsNull() {
		t.Errorf("MIN over empty = %v", res.Rows[0][0])
	}
}

func TestDistinct(t *testing.T) {
	res := mustRun(t, "SELECT DISTINCT gene FROM targets ORDER BY gene")
	if len(res.Rows) != 3 {
		t.Fatalf("distinct genes = %v", res.Rows)
	}
	if !model.Equal(res.Rows[0][0], model.String("DHFR")) {
		t.Errorf("first = %v", res.Rows[0])
	}
	// Without DISTINCT the duplicate appears.
	res = mustRun(t, "SELECT gene FROM targets")
	if len(res.Rows) != 4 {
		t.Errorf("plain genes = %v", res.Rows)
	}
	// DISTINCT respects LIMIT after dedup.
	res = mustRun(t, "SELECT DISTINCT gene FROM targets ORDER BY gene LIMIT 2")
	if len(res.Rows) != 2 {
		t.Errorf("distinct+limit = %v", res.Rows)
	}
	// DISTINCT * over the full row.
	res = mustRun(t, "SELECT DISTINCT * FROM targets")
	if len(res.Rows) != 4 {
		t.Errorf("distinct star = %v", res.Rows)
	}
	// Canonical form round-trips.
	stmt, err := Parse("SELECT DISTINCT gene FROM targets")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stmt.String(), "SELECT DISTINCT") {
		t.Errorf("canonical = %s", stmt.String())
	}
	if _, err := Parse(stmt.String()); err != nil {
		t.Errorf("re-parse: %v", err)
	}
}

func TestHaving(t *testing.T) {
	res := mustRun(t, "SELECT gene, COUNT(*) AS n FROM targets GROUP BY gene HAVING COUNT(*) > 1")
	if len(res.Rows) != 1 || !model.Equal(res.Rows[0][0], model.String("PTGS2")) {
		t.Fatalf("HAVING rows = %v", res.Rows)
	}
	if n, _ := res.Rows[0][1].AsInt(); n != 2 {
		t.Errorf("count = %v", res.Rows[0][1])
	}
	// HAVING over a non-aggregate group expression.
	res = mustRun(t, "SELECT gene, COUNT(*) AS n FROM targets GROUP BY gene HAVING gene = 'DHFR'")
	if len(res.Rows) != 1 || !model.Equal(res.Rows[0][0], model.String("DHFR")) {
		t.Errorf("HAVING group expr rows = %v", res.Rows)
	}
	// HAVING without aggregation is rejected at planning.
	if _, err := runQuery("SELECT name FROM drugs HAVING name = 'x'"); err == nil {
		t.Error("HAVING without GROUP BY must fail")
	}
	// Canonical form round-trips.
	stmt, _ := Parse("SELECT gene, COUNT(*) AS n FROM targets GROUP BY gene HAVING COUNT(*) > 1 ORDER BY n")
	if _, err := Parse(stmt.String()); err != nil {
		t.Errorf("re-parse of %q: %v", stmt.String(), err)
	}
}

// TestAggregateCallsSpelledTwice: a call spelled twice — in two items, in
// an item and HAVING, or only in HAVING — finalizes from one shared state,
// each occurrence reading the right one.
func TestAggregateCallsSpelledTwice(t *testing.T) {
	for _, tc := range []struct{ src, want string }{{
		src: "SELECT gene, COUNT(*) AS n, COUNT(*) + 1 AS m, MAX(drug) AS hi, LENGTH(MAX(drug)) AS len " +
			"FROM targets GROUP BY gene HAVING COUNT(*) >= 1 AND MAX(drug) > 'A' ORDER BY gene",
		want: `"DHFR" 1 2 "Methotrexate" 12; "PTGS2" 2 3 "Ibuprofen" 9; "VKORC1" 1 2 "Warfarin" 8`,
	}, {
		src:  "SELECT gene, MAX(drug) AS hi FROM targets GROUP BY gene HAVING MIN(drug) < 'J' AND MIN(drug) <> MAX(drug)",
		want: `"PTGS2" "Ibuprofen"`,
	}} {
		src, want := tc.src, tc.want
		var rows []string
		for _, r := range mustRun(t, src).Rows {
			cells := make([]string, len(r))
			for i, v := range r {
				cells[i] = v.String()
			}
			rows = append(rows, strings.Join(cells, " "))
		}
		if got := strings.Join(rows, "; "); got != want {
			t.Errorf("%s\n got %s\nwant %s", src, got, want)
		}
	}
}

func TestDistinctWithAggregates(t *testing.T) {
	// Two groups share count 1 — DISTINCT over the counts collapses them.
	res := mustRun(t, "SELECT DISTINCT COUNT(*) AS n FROM targets GROUP BY gene ORDER BY n")
	if len(res.Rows) != 2 {
		t.Errorf("distinct counts = %v", res.Rows)
	}
}

func TestExplainLabelsAllNodes(t *testing.T) {
	stmt, err := Parse(`SELECT gene, COUNT(*) AS n FROM targets AS t JOIN drugs AS d ON d.name = t.drug WHERE d.dose > 0 GROUP BY gene ORDER BY n LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(stmt, env())
	if err != nil {
		t.Fatal(err)
	}
	ex := Explain(plan)
	for _, want := range []string{"Limit 2", "Sort", "Aggregate", "GROUP BY", "Join ON", "Filter", "Scan targets AS t", "Scan drugs AS d"} {
		if !strings.Contains(ex, want) {
			t.Errorf("Explain missing %q:\n%s", want, ex)
		}
	}
	// ConceptScan and Empty labels.
	cs := &ConceptScanNode{Concept: "Drug", Binding: "d", Semantic: true}
	if !strings.Contains(cs.Label(), "inferred") {
		t.Errorf("ConceptScan label = %q", cs.Label())
	}
	cs.Semantic = false
	if !strings.Contains(cs.Label(), "asserted") {
		t.Errorf("ConceptScan label = %q", cs.Label())
	}
	e := &EmptyNode{Reason: "why"}
	if !strings.Contains(e.Label(), "why") {
		t.Errorf("Empty label = %q", e.Label())
	}
}

func TestStatementStringQuoting(t *testing.T) {
	stmt, err := Parse(`SELECT name FROM "my table" AS t WHERE name = 'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.String()
	if !strings.Contains(s, `"my table"`) {
		t.Errorf("quoted table lost: %s", s)
	}
	if !strings.Contains(s, `'it''s'`) {
		t.Errorf("escaped string lost: %s", s)
	}
	if _, err := Parse(s); err != nil {
		t.Errorf("canonical form unparseable: %v", err)
	}
}

func TestLineComments(t *testing.T) {
	res := mustRun(t, `SELECT name -- project just the name
FROM drugs -- the drug table
WHERE name = 'Warfarin' -- one row`)
	if len(res.Rows) != 1 {
		t.Errorf("commented query rows = %v", res.Rows)
	}
	// A comment can swallow the rest of a single-line query safely.
	if _, err := Parse("SELECT name FROM drugs -- WHERE nonsense ("); err != nil {
		t.Errorf("trailing comment must be ignored: %v", err)
	}
	// Subtraction still works.
	res = mustRun(t, "SELECT dose - 1 AS d FROM drugs WHERE name = 'Warfarin'")
	if f, _ := res.Rows[0][0].AsFloat(); f < 4.09 || f > 4.11 {
		t.Errorf("dose - 1 = %v", res.Rows[0][0])
	}
}

func TestStringConcat(t *testing.T) {
	res := mustRun(t, "SELECT name + '!' AS x FROM drugs WHERE name = 'Warfarin'")
	if !model.Equal(res.Rows[0][0], model.String("Warfarin!")) {
		t.Errorf("concat = %v", res.Rows[0][0])
	}
}

func TestCloseArgErrors(t *testing.T) {
	for _, q := range []string{
		"SELECT CLOSE(dose) FROM drugs",
		"SELECT CLOSE(name, 1, 1) FROM drugs WHERE name = 'Warfarin'",
		"SELECT REACHES(id, 5, 2) FROM drugs",
		"SELECT REACHES(id, 'x', 'y') FROM drugs",
		"SELECT TYPES(id, id) FROM drugs",
		"SELECT LOWER(name, name) FROM drugs",
		"SELECT ABS(name) FROM drugs",
	} {
		if _, err := runQuery(q); err == nil {
			t.Errorf("%q must fail", q)
		}
	}
}
