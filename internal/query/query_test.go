package query

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"scdb/internal/model"
)

// fakeEnv is a fixture environment: two tables and one concept extent over
// a toy life-science graph. Scans yield the fixture slices in morsels;
// pulls counts the morsels handed out, to observe LIMIT stopping a scan
// early (atomic: stage workers pull a scan from several goroutines).
type fakeEnv struct {
	pulls atomic.Int64

	tables   map[string][]model.Record
	concepts map[string][]model.Record
	// reach[from][target] under any predicate
	reach map[model.EntityID]map[string]bool
	types map[model.EntityID][]string
	// inferredTypes extend types when semantic=true.
	inferredTypes map[model.EntityID][]string
}

// fakeCursor chunks a fixture slice, counting its pulls on the env.
type fakeCursor struct {
	RecordChunks
	pulls *atomic.Int64
}

func (c *fakeCursor) Next() []model.Record {
	m := c.RecordChunks.Next()
	if m != nil {
		c.pulls.Add(1)
	}
	return m
}

func (f *fakeEnv) cursor(recs []model.Record, ok bool, size int) (ScanCursor, bool) {
	if !ok {
		return nil, false
	}
	return &fakeCursor{RecordChunks{recs, size}, &f.pulls}, true
}

func (f *fakeEnv) ScanTable(name string, _ []model.Conjunct, size int) (ScanCursor, bool) {
	recs, ok := f.tables[name]
	return f.cursor(recs, ok, size)
}

// ScanFunction serves one fixture function, series(n): n rows numbered
// from 1 in column i.
func (f *fakeEnv) ScanFunction(name string, args []model.Value, size int) (ScanCursor, error) {
	n, ok := int64(0), false
	if len(args) == 1 {
		n, ok = args[0].AsInt()
	}
	if name != "series" || !ok {
		return nil, fmt.Errorf("query test: no function %s%v", name, args)
	}
	recs := make([]model.Record, n)
	for i := range recs {
		recs[i] = model.Record{"i": model.Int(int64(i + 1))}
	}
	cur, _ := f.cursor(recs, true, size)
	return cur, nil
}

func (f *fakeEnv) ScanConcept(c string, semantic bool, size int) (ScanCursor, bool) {
	recs, ok := f.concepts[c]
	return f.cursor(recs, ok, size)
}

func (f *fakeEnv) HasTable(name string) bool   { _, ok := f.tables[name]; return ok }
func (f *fakeEnv) HasConcept(name string) bool { _, ok := f.concepts[name]; return ok }

func (f *fakeEnv) IsA(v model.Value, concept string, semantic bool) model.Truth {
	id, ok := v.AsRef()
	if !ok {
		return model.Unknown
	}
	for _, t := range f.types[id] {
		if t == concept {
			return model.True
		}
	}
	if semantic {
		for _, t := range f.inferredTypes[id] {
			if t == concept {
				return model.True
			}
		}
	}
	return model.False
}

func (f *fakeEnv) Reaches(from model.Value, target string, k int, pred string, semantic bool) model.Truth {
	id, ok := from.AsRef()
	if !ok {
		return model.Unknown
	}
	return model.TruthOf(f.reach[id][target])
}

func (f *fakeEnv) Linked(a, b model.Value, pred string, semantic bool) model.Truth {
	ia, ok1 := a.AsRef()
	ib, ok2 := b.AsRef()
	if !ok1 || !ok2 {
		return model.Unknown
	}
	return model.TruthOf(ia+1 == ib) // toy adjacency
}

func (f *fakeEnv) PredictType(v model.Value) model.Value {
	id, ok := v.AsRef()
	if !ok {
		return model.Null()
	}
	if ts := f.types[id]; len(ts) > 0 {
		return model.String(ts[0])
	}
	return model.Null()
}

func (f *fakeEnv) TypesOf(v model.Value, semantic bool) model.Value {
	id, ok := v.AsRef()
	if !ok {
		return model.Null()
	}
	var vals []model.Value
	for _, t := range f.types[id] {
		vals = append(vals, model.String(t))
	}
	if semantic {
		for _, t := range f.inferredTypes[id] {
			vals = append(vals, model.String(t))
		}
	}
	return model.List(vals...)
}

func env() *fakeEnv {
	return &fakeEnv{
		tables: map[string][]model.Record{
			"drugs": {
				{"name": model.String("Warfarin"), "dose": model.Float(5.1), "id": model.Ref(1)},
				{"name": model.String("Ibuprofen"), "dose": model.Float(200), "id": model.Ref(2)},
				{"name": model.String("Methotrexate"), "dose": model.Float(7.5), "id": model.Ref(3)},
				{"name": model.String("Mystery"), "id": model.Ref(4)}, // dose missing → null
			},
			"targets": {
				{"drug": model.String("Warfarin"), "gene": model.String("VKORC1")},
				{"drug": model.String("Ibuprofen"), "gene": model.String("PTGS2")},
				{"drug": model.String("Methotrexate"), "gene": model.String("DHFR")},
				{"drug": model.String("Acetaminophen"), "gene": model.String("PTGS2")},
			},
		},
		concepts: map[string][]model.Record{
			"Drug": {
				{"_id": model.Ref(1), "name": model.String("Warfarin")},
				{"_id": model.Ref(2), "name": model.String("Ibuprofen")},
			},
		},
		reach: map[model.EntityID]map[string]bool{
			3: {"Osteosarcoma": true},
		},
		types:         map[model.EntityID][]string{1: {"Drug"}, 2: {"Drug"}, 3: {"Drug"}},
		inferredTypes: map[model.EntityID][]string{1: {"Chemical"}, 2: {"Chemical"}, 3: {"Chemical"}},
	}
}

// mustRun parses, plans, and executes a query against the fixture.
func mustRun(t *testing.T, src string) *Result {
	t.Helper()
	res, err := runQuery(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return res
}

func runQuery(src string) (*Result, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	e := env()
	plan, err := BuildPlan(stmt, e)
	if err != nil {
		return nil, err
	}
	res, _, err := ExecuteOpts(plan, e, ExecOptions{Semantic: stmt.Semantics, Parallelism: 1})
	return res, err
}

func TestParseRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT * FROM drugs",
		"SELECT name, dose FROM drugs WHERE dose > 5 ORDER BY dose DESC LIMIT 3",
		"SELECT d.name FROM drugs AS d JOIN targets AS t ON d.name = t.drug",
		"SELECT COUNT(*) FROM drugs GROUP BY name",
		"SELECT name FROM drugs WHERE ISA(id, 'Drug') WITH SEMANTICS",
		"SELECT name FROM drugs WHERE dose IN (5.1, 7.5)",
		"SELECT name FROM drugs WHERE name LIKE 'War%'",
		"SELECT name FROM drugs WHERE dose IS NOT NULL",
		"SELECT name FROM drugs UNDER CERTAIN",
		"SELECT name FROM drugs UNDER FUZZY(0.8) WITH SEMANTICS",
		"SELECT * FROM witnesses()",
		"SELECT value FROM justify('Warfarin', 'dose', 5.0, -0.5) AS j JOIN drugs d ON j.value = d.dose",
		"INSERT INTO claims (entity, attr, value, source) VALUES ('Warfarin', 'dose', 5.1, 'us'), ('Warfarin', 'dose', -3.4, 'it''s')",
		"insert into claims (entity, \"context\", confidence) values (NULL, 'White+Asian', 0.5)",
		"ADD AXIOMS 'concept ProbeThing', 'sub Drug ProbeThing'",
		"add axioms 'sub Drug ProbeThing'",
		"REFRESH RICHNESS",
		"SELECT * FROM richness() AS insert JOIN add ON insert.source = add.refresh",
	}
	for _, src := range srcs {
		stmt, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		// Re-parse the canonical form: must parse to the same string.
		again, err := Parse(stmt.String())
		if err != nil {
			t.Errorf("re-parse of %q (%q): %v", src, stmt.String(), err)
			continue
		}
		if stmt.String() != again.String() {
			t.Errorf("canonical form unstable: %q vs %q", stmt.String(), again.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM drugs WHERE",
		"SELECT * FROM drugs LIMIT -1",
		"SELECT * FROM drugs trailing garbage (",
		"SELECT name FROM drugs WHERE name LIKE 5",
		"SELECT * FROM drugs UNDER MAYBE",
		"SELECT * FROM drugs UNDER FUZZY(2)",
		"SELECT 'unterminated FROM drugs",
		"SELECT * FROM drugs WHERE a ! b",
		"SELECT * FROM f(",
		"SELECT * FROM f(a)",
		"SELECT * FROM f(1 + 2)",
		"SELECT * FROM f(1,)",
		"SELECT * FROM f(,1)",
		"SELECT * FROM f(1 2)",
		"EXPLAIN INSERT INTO claims (entity) VALUES ('x')",
		"EXPLAIN ANALYZE REFRESH RICHNESS",
		"TRACE ADD AXIOMS 'concept X'",
		"INSERT claims (entity) VALUES ('x')",
		"INSERT INTO claims VALUES ('x')",
		"INSERT INTO claims () VALUES ()",
		"INSERT INTO claims (entity, attr) VALUES ('x')",
		"INSERT INTO claims (entity) VALUES ('x', 'y')",
		"INSERT INTO claims (entity) VALUES ('x'),",
		"INSERT INTO claims (entity) VALUES (1 + 2)",
		"INSERT INTO claims (entity) ('x')",
		"ADD AXIOMS",
		"ADD AXIOMS concept",
		"ADD 'concept X'",
		"REFRESH",
		"REFRESH RICHNESS now",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) must fail", src)
		}
	}
}

// TestFunctionSource: a call in FROM or JOIN scans the environment's
// function with its literal arguments, binds like a table and is never
// mistaken for one.
func TestFunctionSource(t *testing.T) {
	res := mustRun(t, "SELECT s.i, d.name FROM series(2) AS s JOIN drugs AS d ON d.dose > s.i * 100 ORDER BY s.i")
	if len(res.Rows) != 1 || !model.Equal(res.Rows[0][0], model.Int(1)) || !model.Equal(res.Rows[0][1], model.String("Ibuprofen")) {
		t.Errorf("series(2) joined with drugs = %v", res.Rows)
	}
	res = mustRun(t, "SELECT i FROM series(5) WHERE i > 3 ORDER BY i DESC")
	if len(res.Rows) != 2 || !model.Equal(res.Rows[0][0], model.Int(5)) {
		t.Errorf("series(5) filtered = %v", res.Rows)
	}
	stmt, err := Parse("SELECT i FROM series(2) WHERE i = 1")
	if err != nil {
		t.Fatal(err)
	}
	if src := stmt.From; !src.Call || src.Name != "series" || src.Binding() != "series" || len(src.Args) != 1 {
		t.Errorf("parsed source = %+v", src)
	}
	plan, err := BuildPlan(stmt, env())
	if err != nil {
		t.Fatal(err)
	}
	if got := Explain(plan); !strings.Contains(got, "Scan series(2) AS series") {
		t.Errorf("plan:\n%s", got)
	}
	for _, q := range []string{"SELECT * FROM series()", "SELECT * FROM series('x')", "SELECT * FROM drugs()"} {
		if _, err := runQuery(q); err == nil {
			t.Errorf("%s must fail", q)
		}
	}
	if _, err := runQuery("SELECT * FROM series"); err == nil || !strings.Contains(err.Error(), "unknown source") {
		t.Errorf("a bare name must not resolve to a function: %v", err)
	}
}

func TestSimpleScanAndFilter(t *testing.T) {
	res := mustRun(t, "SELECT name FROM drugs WHERE dose > 6 AND dose < 100")
	if len(res.Rows) != 1 || !model.Equal(res.Rows[0][0], model.String("Methotrexate")) {
		t.Errorf("rows = %v", res.Rows)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "name" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestNullComparisonsDropRows(t *testing.T) {
	// Mystery has null dose: neither > nor <= selects it.
	over := mustRun(t, "SELECT name FROM drugs WHERE dose > 0")
	under := mustRun(t, "SELECT name FROM drugs WHERE dose <= 0")
	if len(over.Rows)+len(under.Rows) != 3 {
		t.Errorf("null row leaked into a partition: %d + %d", len(over.Rows), len(under.Rows))
	}
	isNull := mustRun(t, "SELECT name FROM drugs WHERE dose IS NULL")
	if len(isNull.Rows) != 1 || !model.Equal(isNull.Rows[0][0], model.String("Mystery")) {
		t.Errorf("IS NULL = %v", isNull.Rows)
	}
	notNull := mustRun(t, "SELECT name FROM drugs WHERE dose IS NOT NULL")
	if len(notNull.Rows) != 3 {
		t.Errorf("IS NOT NULL = %v", notNull.Rows)
	}
}

func TestProjectionArithmeticAndAlias(t *testing.T) {
	res := mustRun(t, "SELECT name, dose * 2 AS double_dose FROM drugs WHERE name = 'Warfarin'")
	if res.Columns[1] != "double_dose" {
		t.Errorf("columns = %v", res.Columns)
	}
	if f, _ := res.Rows[0][1].AsFloat(); f != 10.2 {
		t.Errorf("double dose = %v", res.Rows[0][1])
	}
}

func TestStarProjection(t *testing.T) {
	res := mustRun(t, "SELECT * FROM drugs WHERE name = 'Warfarin'")
	if len(res.Columns) != 3 {
		t.Errorf("star columns = %v", res.Columns)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	res := mustRun(t, "SELECT name, dose FROM drugs WHERE dose IS NOT NULL ORDER BY dose DESC LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !model.Equal(res.Rows[0][0], model.String("Ibuprofen")) {
		t.Errorf("first = %v", res.Rows[0])
	}
	if !model.Equal(res.Rows[1][0], model.String("Methotrexate")) {
		t.Errorf("second = %v", res.Rows[1])
	}
	asc := mustRun(t, "SELECT name FROM drugs WHERE dose IS NOT NULL ORDER BY dose")
	if !model.Equal(asc.Rows[0][0], model.String("Warfarin")) {
		t.Errorf("asc first = %v", asc.Rows[0])
	}
}

func TestHashJoin(t *testing.T) {
	res := mustRun(t, "SELECT d.name, t.gene FROM drugs AS d JOIN targets AS t ON d.name = t.drug ORDER BY d.name")
	if len(res.Rows) != 3 {
		t.Fatalf("join rows = %v", res.Rows)
	}
	if !model.Equal(res.Rows[0][1], model.String("PTGS2")) { // Ibuprofen first
		t.Errorf("rows = %v", res.Rows)
	}
	// Acetaminophen has no drugs row; Mystery has no targets row.
	for _, r := range res.Rows {
		if model.Equal(r[0], model.String("Mystery")) {
			t.Error("unmatched row leaked through join")
		}
	}
}

func TestNestedLoopJoin(t *testing.T) {
	res := mustRun(t, "SELECT d.name, t.gene FROM drugs AS d JOIN targets AS t ON d.name = t.drug AND d.dose > 6 AND d.dose < 100")
	if len(res.Rows) != 1 || !model.Equal(res.Rows[0][1], model.String("DHFR")) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	res := mustRun(t, "SELECT COUNT(*) AS n, SUM(dose) AS total, AVG(dose) AS mean, MIN(dose) AS lo, MAX(dose) AS hi FROM drugs")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	row := res.Rows[0]
	if n, _ := row[0].AsInt(); n != 4 {
		t.Errorf("COUNT(*) = %v", row[0])
	}
	if f, _ := row[1].AsFloat(); f < 212.59 || f > 212.61 {
		t.Errorf("SUM = %v", row[1])
	}
	if f, _ := row[2].AsFloat(); f < 70.8 || f > 70.9 { // over 3 non-null
		t.Errorf("AVG = %v", row[2])
	}
	if f, _ := row[3].AsFloat(); f != 5.1 {
		t.Errorf("MIN = %v", row[3])
	}
	if f, _ := row[4].AsFloat(); f != 200 {
		t.Errorf("MAX = %v", row[4])
	}
}

func TestGroupBy(t *testing.T) {
	res := mustRun(t, "SELECT gene, COUNT(*) AS n FROM targets GROUP BY gene ORDER BY n DESC, gene")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if !model.Equal(res.Rows[0][0], model.String("PTGS2")) {
		t.Errorf("top group = %v", res.Rows[0])
	}
	if n, _ := res.Rows[0][1].AsInt(); n != 2 {
		t.Errorf("PTGS2 count = %v", res.Rows[0][1])
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	res := mustRun(t, "SELECT COUNT(*) AS n FROM drugs WHERE dose > 10000")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 0 {
		t.Errorf("COUNT over empty = %v", res.Rows[0][0])
	}
}

func TestConceptScan(t *testing.T) {
	res := mustRun(t, "SELECT name FROM Drug ORDER BY name")
	if len(res.Rows) != 2 {
		t.Fatalf("concept rows = %v", res.Rows)
	}
	if !model.Equal(res.Rows[0][0], model.String("Ibuprofen")) {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSemanticPredicates(t *testing.T) {
	// Asserted type works without WITH SEMANTICS.
	res := mustRun(t, "SELECT name FROM drugs WHERE ISA(id, 'Drug')")
	if len(res.Rows) != 3 {
		t.Errorf("asserted ISA rows = %v", res.Rows)
	}
	// Inferred type requires WITH SEMANTICS.
	res = mustRun(t, "SELECT name FROM drugs WHERE ISA(id, 'Chemical')")
	if len(res.Rows) != 0 {
		t.Errorf("inferred type without semantics = %v", res.Rows)
	}
	res = mustRun(t, "SELECT name FROM drugs WHERE ISA(id, 'Chemical') WITH SEMANTICS")
	if len(res.Rows) != 3 {
		t.Errorf("inferred ISA rows = %v", res.Rows)
	}
}

func TestReachesPredicate(t *testing.T) {
	res := mustRun(t, "SELECT name FROM drugs WHERE REACHES(id, 'Osteosarcoma', 3)")
	if len(res.Rows) != 1 || !model.Equal(res.Rows[0][0], model.String("Methotrexate")) {
		t.Errorf("REACHES rows = %v", res.Rows)
	}
}

func TestClosePredicate(t *testing.T) {
	// The Warfarin fuzzy-closeness query from the paper.
	res := mustRun(t, "SELECT name FROM drugs WHERE CLOSE(dose, 5.0, 0.5) >= 0.5")
	if len(res.Rows) != 1 || !model.Equal(res.Rows[0][0], model.String("Warfarin")) {
		t.Errorf("CLOSE rows = %v", res.Rows)
	}
	// Null dose propagates as null, dropping the row without error.
	res = mustRun(t, "SELECT name FROM drugs WHERE CLOSE(dose, 5.0, 0.5) > 0")
	for _, r := range res.Rows {
		if model.Equal(r[0], model.String("Mystery")) {
			t.Error("null dose must not satisfy CLOSE")
		}
	}
}

func TestLikeInScalarFuncs(t *testing.T) {
	res := mustRun(t, "SELECT name FROM drugs WHERE name LIKE '%war%'")
	if len(res.Rows) != 1 {
		t.Errorf("LIKE rows = %v", res.Rows)
	}
	res = mustRun(t, "SELECT LOWER(name) FROM drugs WHERE UPPER(name) = 'WARFARIN'")
	if len(res.Rows) != 1 || !model.Equal(res.Rows[0][0], model.String("warfarin")) {
		t.Errorf("LOWER/UPPER = %v", res.Rows)
	}
	res = mustRun(t, "SELECT COALESCE(dose, 0) AS d FROM drugs WHERE name = 'Mystery'")
	if f, _ := res.Rows[0][0].AsFloat(); f != 0 {
		t.Errorf("COALESCE = %v", res.Rows[0][0])
	}
	res = mustRun(t, "SELECT ABS(0 - dose) AS d FROM drugs WHERE name = 'Warfarin'")
	if f, _ := res.Rows[0][0].AsFloat(); f != 5.1 {
		t.Errorf("ABS = %v", res.Rows[0][0])
	}
}

func TestInList(t *testing.T) {
	res := mustRun(t, "SELECT name FROM drugs WHERE name IN ('Warfarin', 'Ibuprofen')")
	if len(res.Rows) != 2 {
		t.Errorf("IN rows = %v", res.Rows)
	}
	res = mustRun(t, "SELECT name FROM drugs WHERE dose IN (5.1)")
	if len(res.Rows) != 1 {
		t.Errorf("numeric IN rows = %v", res.Rows)
	}
}

func TestRuntimeErrors(t *testing.T) {
	bad := []string{
		"SELECT * FROM nonexistent",
		"SELECT name FROM drugs WHERE name - 1 > 2",           // non-numeric arithmetic
		"SELECT name FROM drugs WHERE dose",                   // non-boolean filter
		"SELECT ISA(id) FROM drugs",                           // wrong arity
		"SELECT UNKNOWN_FUNC(name) FROM drugs",                // unknown function
		"SELECT COUNT(name) FROM drugs WHERE COUNT(name) > 1", // aggregate in WHERE
	}
	for _, src := range bad {
		if _, err := runQuery(src); err == nil {
			t.Errorf("%q must fail at runtime", src)
		}
	}
}

func TestDivisionByZeroYieldsNull(t *testing.T) {
	res := mustRun(t, "SELECT dose / 0 AS x FROM drugs WHERE name = 'Warfarin'")
	if !res.Rows[0][0].IsNull() {
		t.Errorf("x = %v, want null", res.Rows[0][0])
	}
}

func TestExplainShape(t *testing.T) {
	stmt, err := Parse("SELECT name FROM drugs WHERE dose > 5 ORDER BY name LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(stmt, env())
	if err != nil {
		t.Fatal(err)
	}
	ex := Explain(plan)
	for _, want := range []string{"Project name", "Limit 1", "Sort name", "Filter", "Scan drugs"} {
		if !strings.Contains(ex, want) {
			t.Errorf("Explain missing %q:\n%s", want, ex)
		}
	}
	// Indentation: Scan is the deepest.
	lines := strings.Split(strings.TrimSpace(ex), "\n")
	if !strings.HasPrefix(lines[len(lines)-1], strings.Repeat("  ", len(lines)-1)) {
		t.Errorf("bad indentation:\n%s", ex)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	// Both drugs and targets have no shared column except via alias; gene
	// exists once, name once → unqualified refs fine. Make an ambiguous
	// one: join drugs with drugs.
	_, err := runQuery("SELECT name FROM drugs AS a JOIN drugs AS b ON a.name = b.name WHERE name = 'x'")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column must error, got %v", err)
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"%", "", true},
		{"", "", true},
		{"a%", "abc", true},
		{"%c", "abc", true},
		{"a_c", "abc", true},
		{"a_c", "abbc", false},
		{"ABC", "abc", true}, // case-insensitive
		{"%b%", "abc", true},
		{"x%", "abc", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.pattern, c.s, got)
		}
	}
}
