package query

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"scdb/internal/model"
)

// renderResult flattens a result to a comparable string.
func renderResult(res *Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, "|"))
	b.WriteString("\n")
	for _, r := range res.Rows {
		for i, v := range r {
			if i > 0 {
				b.WriteString("|")
			}
			b.WriteString(v.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// differentialCorpus exercises every operator the executor implements.
var differentialCorpus = []string{
	"SELECT * FROM drugs",
	"SELECT name FROM drugs",
	"SELECT name, dose FROM drugs WHERE dose > 5 ORDER BY dose DESC LIMIT 3",
	"SELECT name FROM drugs WHERE dose > 6 AND dose < 100",
	"SELECT name FROM drugs WHERE dose IS NULL",
	"SELECT name FROM drugs WHERE dose IS NOT NULL ORDER BY dose",
	"SELECT name, dose * 2 AS double_dose FROM drugs WHERE name = 'Warfarin'",
	"SELECT d.name, t.gene FROM drugs AS d JOIN targets AS t ON d.name = t.drug ORDER BY d.name",
	"SELECT d.name, t.gene FROM drugs AS d JOIN targets AS t ON d.name = t.drug AND d.dose > 6 AND d.dose < 100",
	"SELECT * FROM drugs AS d JOIN targets AS t ON d.name = t.drug",
	"SELECT COUNT(*) AS n, SUM(dose) AS total, AVG(dose) AS mean, MIN(dose) AS lo, MAX(dose) AS hi FROM drugs",
	"SELECT gene, COUNT(*) AS n FROM targets GROUP BY gene ORDER BY n DESC, gene",
	"SELECT gene, COUNT(*) AS n FROM targets GROUP BY gene HAVING COUNT(*) > 1",
	"SELECT COUNT(*) AS n FROM drugs WHERE dose > 10000",
	"SELECT DISTINCT gene FROM targets ORDER BY gene",
	"SELECT DISTINCT gene FROM targets",
	"SELECT name FROM Drug ORDER BY name",
	"SELECT name FROM drugs WHERE ISA(id, 'Drug')",
	"SELECT name FROM drugs WHERE ISA(id, 'Chemical') WITH SEMANTICS",
	"SELECT name FROM drugs WHERE REACHES(id, 'Osteosarcoma', 3)",
	"SELECT name FROM drugs WHERE CLOSE(dose, 5.0, 0.5) >= 0.5",
	"SELECT name FROM drugs WHERE name LIKE '%war%'",
	"SELECT name FROM drugs WHERE name IN ('Warfarin', 'Ibuprofen')",
	"SELECT name FROM drugs ORDER BY name LIMIT 0",
	"SELECT name FROM drugs LIMIT 2",
	"SELECT SUM(dose) + COUNT(*) AS x FROM drugs",
	"SELECT name FROM drugs WHERE dose > 1 OR name = 'Mystery'",
}

// runOpts plans src against the fixture and executes it with opts.
func runOpts(t *testing.T, src string, opts ExecOptions) (*Result, error) {
	t.Helper()
	return runOn(t, env(), src, opts)
}

// runOn plans src against e and executes it with opts.
func runOn(t *testing.T, e *fakeEnv, src string, opts ExecOptions) (*Result, error) {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	plan, err := BuildPlan(stmt, e)
	if err != nil {
		return nil, err
	}
	opts.Semantic = stmt.Semantics
	res, _, err := ExecuteOpts(plan, e, opts)
	return res, err
}

// edgeCorpus runs over the "edge" table, whose size straddles the hand-over
// from a stage's inline loop to its workers.
var edgeCorpus = []string{
	"SELECT * FROM edge",
	"SELECT k, v FROM edge WHERE v >= 0",
	"SELECT COUNT(*) AS n, SUM(v) AS s FROM edge",
	"SELECT k, COUNT(*) AS n FROM edge GROUP BY k ORDER BY k",
	"SELECT DISTINCT k FROM edge",
	"SELECT v FROM edge ORDER BY v DESC LIMIT 2",
	"SELECT v FROM edge LIMIT 1",
	"SELECT a.v, b.v FROM edge AS a JOIN edge AS b ON a.k = b.k ORDER BY a.v, b.v",
	"SELECT a.v, b.v FROM edge AS a JOIN edge AS b ON a.v < b.v",
}

// edgeEnv is the fixture plus an "edge" table of n rows.
func edgeEnv(n int) *fakeEnv {
	e := env()
	recs := make([]model.Record, n)
	for i := range recs {
		recs[i] = model.Record{"k": model.Int(int64(i % 3)), "v": model.Int(int64(i))}
	}
	e.tables["edge"] = recs
	return e
}

// TestParallelDifferential: for every corpus statement, every worker count
// must produce byte-identical output to serial execution — at the default
// morsel size and at a tiny one that forces multi-morsel merges.
func TestParallelDifferential(t *testing.T) {
	for _, size := range []int{0, 1, 2, 3} {
		for _, src := range differentialCorpus {
			base, err := runOpts(t, src, ExecOptions{Parallelism: 1, MorselSize: size})
			if err != nil {
				t.Fatalf("serial %q (size %d): %v", src, size, err)
			}
			want := renderResult(base)
			for _, workers := range []int{2, 3, 8} {
				got, err := runOpts(t, src, ExecOptions{Parallelism: workers, MorselSize: size})
				if err != nil {
					t.Fatalf("parallel(%d) %q (size %d): %v", workers, src, size, err)
				}
				if g := renderResult(got); g != want {
					t.Errorf("%q: parallelism %d size %d diverged:\nserial:\n%s\nparallel:\n%s",
						src, workers, size, want, g)
				}
			}
		}
	}
	// Tables of 0, 1, size and size+1 rows: no morsel, one, one full, and
	// the second morsel that starts each stage's workers.
	for _, size := range []int{1, 2, 16} {
		for _, n := range []int{0, 1, size, size + 1} {
			e := edgeEnv(n)
			for _, src := range edgeCorpus {
				base, err := runOn(t, e, src, ExecOptions{Parallelism: 1, MorselSize: size})
				if err != nil {
					t.Fatalf("serial %q (%d rows, size %d): %v", src, n, size, err)
				}
				want := renderResult(base)
				for _, workers := range []int{2, 8} {
					got, err := runOn(t, e, src, ExecOptions{Parallelism: workers, MorselSize: size})
					if err != nil {
						t.Fatalf("parallel(%d) %q (%d rows, size %d): %v", workers, src, n, size, err)
					}
					if g := renderResult(got); g != want {
						t.Errorf("%q over %d rows: parallelism %d size %d diverged:\nserial:\n%s\nparallel:\n%s",
							src, n, workers, size, want, g)
					}
				}
			}
			res, err := runOn(t, e, "SELECT COUNT(*) AS n FROM edge", ExecOptions{Parallelism: 8, MorselSize: size})
			if err != nil || len(res.Rows) != 1 || !model.Equal(res.Rows[0][0], model.Int(int64(n))) {
				t.Errorf("COUNT(*) over %d rows at size %d: %v, %v", n, size, res, err)
			}
		}
	}
}

// TestParallelErrorParity: runtime errors surface identically at every
// worker count.
func TestParallelErrorParity(t *testing.T) {
	bad := []string{
		"SELECT name FROM drugs WHERE name - 1 > 2",
		"SELECT name FROM drugs WHERE dose",
		"SELECT ISA(id) FROM drugs",
		"SELECT UNKNOWN_FUNC(name) FROM drugs",
		"SELECT SUM(name) FROM drugs",
		"SELECT SUM(*) FROM drugs",
		"SELECT COUNT(name, dose) FROM drugs",
	}
	for _, src := range bad {
		_, serr := runOpts(t, src, ExecOptions{Parallelism: 1, MorselSize: 2})
		if serr == nil {
			t.Fatalf("%q must fail", src)
		}
		for _, workers := range []int{2, 8} {
			_, perr := runOpts(t, src, ExecOptions{Parallelism: workers, MorselSize: 2})
			if perr == nil {
				t.Fatalf("%q must fail at parallelism %d", src, workers)
			}
			if serr.Error() != perr.Error() {
				t.Errorf("%q: error diverged: serial %q, parallel(%d) %q",
					src, serr, workers, perr)
			}
		}
	}
	// Morsels of two rows, with a bad value in morsel 0 (which the caller's
	// goroutine runs) or in morsel 1 (the first a worker takes), and a
	// second bad value two morsels later that must never be the one
	// reported. Over Project and Filter the failing stage is the first;
	// under ORDER BY and COUNT a downstream stage sees its input fail after
	// one good morsel.
	e := env()
	withBad := func(at ...int) []model.Record {
		recs := make([]model.Record, 8)
		for i := range recs {
			recs[i] = model.Record{"v": model.Int(int64(i))}
		}
		for j, i := range at {
			recs[i] = model.Record{"v": model.String(fmt.Sprintf("bad-%d", j))}
		}
		return recs
	}
	e.tables["err0"], e.tables["err1"] = withBad(0, 4), withBad(2, 6)
	for _, table := range []string{"err0", "err1"} {
		for _, src := range []string{
			"SELECT v - 1 AS w FROM " + table,
			"SELECT v FROM " + table + " WHERE v - 1 > 0",
			"SELECT v - 1 AS w FROM " + table + " ORDER BY w",
			"SELECT COUNT(*) AS n FROM " + table + " WHERE v - 1 > 0",
		} {
			_, serr := runOn(t, e, src, ExecOptions{Parallelism: 1, MorselSize: 2})
			if serr == nil || !strings.Contains(serr.Error(), "bad-0") {
				t.Fatalf("%q: serial err = %v, want the first bad value's", src, serr)
			}
			for _, workers := range []int{2, 8} {
				_, perr := runOn(t, e, src, ExecOptions{Parallelism: workers, MorselSize: 2})
				if perr == nil || perr.Error() != serr.Error() {
					t.Errorf("%q: error diverged: serial %q, parallel(%d) %v", src, serr, workers, perr)
				}
			}
		}
	}
}

// TestDeduperHashCollision: rows that collide on hash but differ in content
// must both survive DISTINCT (the bug the bucket+compare design fixes).
func TestDeduperHashCollision(t *testing.T) {
	sh := &rowShape{cols: []string{"name"}}
	r1 := Row{sh: sh, vals: []model.Value{model.String("a")}}
	r2 := Row{sh: sh, vals: []model.Value{model.String("b")}}
	d := &deduper{buckets: map[uint64][]Row{}}
	const h = 42 // forced collision: same bucket for both rows
	if !d.keep(r1, h) {
		t.Fatal("first row must be kept")
	}
	if !d.keep(r2, h) {
		t.Fatal("distinct row sharing a hash bucket must be kept")
	}
	if d.keep(r1, h) {
		t.Fatal("true duplicate must be dropped")
	}
	// Null and absent values are distinct rows.
	r3 := Row{sh: sh, vals: []model.Value{model.Null()}}
	if !d.keep(r3, h) {
		t.Fatal("null-valued row is distinct from string-valued rows")
	}
	if d.keep(r3, h) {
		t.Fatal("duplicate null-valued row must be dropped")
	}
}

// synthetic builds an environment with one big table for ordering and
// early-stop tests: n rows with key cycling 0..9 and a unique seq.
func synthetic(n int) (*fakeEnv, []model.Record) {
	recs := make([]model.Record, n)
	for i := range recs {
		recs[i] = model.Record{
			"key": model.Int(int64(i % 10)),
			"seq": model.Int(int64(i)),
		}
	}
	e := env()
	e.tables["big"] = recs
	return e, recs
}

// TestTopKMatchesSortLimit: the fused TopK operator must agree with
// Sort-then-Limit on data full of duplicate keys (stable tiebreak), at
// every parallelism.
func TestTopKMatchesSortLimit(t *testing.T) {
	e, _ := synthetic(137)
	keys := []OrderKey{{Expr: &ColRef{Name: "key"}, Desc: true}}
	scan := func() Node { return &ScanNode{Table: "big", Binding: "big"} }
	for _, k := range []int{0, 1, 3, 10, 137, 500} {
		ref := &LimitNode{Input: &SortNode{Input: scan(), Keys: keys}, N: k}
		want, _, err := ExecuteOpts(ref, e, ExecOptions{Parallelism: 1, MorselSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			topk := &TopKNode{Input: scan(), Keys: keys, N: k}
			got, _, err := ExecuteOpts(topk, e, ExecOptions{Parallelism: workers, MorselSize: 16})
			if err != nil {
				t.Fatal(err)
			}
			if renderResult(got) != renderResult(want) {
				t.Errorf("k=%d workers=%d: TopK != Sort+Limit\nwant:\n%s\ngot:\n%s",
					k, workers, renderResult(want), renderResult(got))
			}
		}
	}
}

// TestLimitStopsScanEarly: Scan → Limit over a streaming source must cancel
// the scan long before it covers the table.
func TestLimitStopsScanEarly(t *testing.T) {
	env, _ := synthetic(10000)
	plan := &LimitNode{Input: &ScanNode{Table: "big", Binding: "big"}, N: 5}
	const workers = 4
	res, _, err := ExecuteOpts(plan, env, ExecOptions{Parallelism: workers, MorselSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	// 10000 rows / 10 per morsel = 1000 chunks; the limit needs 1. The
	// window a cancellation allows, workers×5, bounds the rest.
	if n := env.pulls.Load(); n > workers*5 {
		t.Errorf("scan pulled %d chunks for LIMIT 5; early stop is broken", n)
	}
}

// TestOperatorStatsTree: EXPLAIN ANALYZE's stats mirror the plan shape and
// count rows faithfully.
func TestOperatorStatsTree(t *testing.T) {
	stmt, err := Parse("SELECT name FROM drugs WHERE dose > 5")
	if err != nil {
		t.Fatal(err)
	}
	e := env()
	plan, err := BuildPlan(stmt, e)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := ExecuteOpts(plan, e, ExecOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("no stats tree")
	}
	rendered := st.Render()
	for _, want := range []string{"Project name", "Filter", "Scan drugs", "in=", "out=", "morsels=", "time="} {
		if !strings.Contains(rendered, want) {
			t.Errorf("stats missing %q:\n%s", want, rendered)
		}
	}
	// The root's output cardinality equals the result.
	if st.RowsOut != int64(len(res.Rows)) {
		t.Errorf("root RowsOut = %d, want %d", st.RowsOut, len(res.Rows))
	}
	// Scan (deepest child) reads all 4 fixture rows.
	leaf := st
	for len(leaf.Children) > 0 {
		leaf = leaf.Children[0]
	}
	if leaf.RowsIn != 4 {
		t.Errorf("scan RowsIn = %d, want 4", leaf.RowsIn)
	}
}

// TestExplainParsing: the EXPLAIN [ANALYZE] prefix parses, round-trips, and
// stays out of the way of identifiers named like the keywords.
func TestExplainParsing(t *testing.T) {
	stmt, err := Parse("EXPLAIN SELECT name FROM drugs")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Explain || stmt.Analyze {
		t.Errorf("Explain=%v Analyze=%v", stmt.Explain, stmt.Analyze)
	}
	stmt, err = Parse("EXPLAIN ANALYZE SELECT name FROM drugs LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Explain || !stmt.Analyze {
		t.Errorf("Explain=%v Analyze=%v", stmt.Explain, stmt.Analyze)
	}
	for _, src := range []string{
		"EXPLAIN SELECT name FROM drugs",
		"EXPLAIN ANALYZE SELECT name FROM drugs ORDER BY name LIMIT 2",
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(stmt.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", stmt.String(), err)
		}
		if stmt.String() != again.String() {
			t.Errorf("canonical form unstable: %q vs %q", stmt.String(), again.String())
		}
	}
}

// TestParallelDefaultWorkers: Parallelism 0 resolves to GOMAXPROCS and
// still matches serial output.
func TestParallelDefaultWorkers(t *testing.T) {
	for _, src := range []string{
		"SELECT name FROM drugs ORDER BY name",
		"SELECT gene, COUNT(*) AS n FROM targets GROUP BY gene",
	} {
		want, err := runOpts(t, src, ExecOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := runOpts(t, src, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if renderResult(got) != renderResult(want) {
			t.Errorf("%q: default parallelism diverged", src)
		}
	}
}

// passOp hands each morsel on as it is.
type passOp struct{}

func (passOp) process(m morsel) (morsel, error) { return m, nil }

// TestParStageOrdering: a stage restores morsel order under contention.
func TestParStageOrdering(t *testing.T) {
	rows := make([]Row, 500)
	for i := range rows {
		rows[i] = Row{vals: []model.Value{model.Int(int64(i))}}
	}
	x := &execCtx{workers: 8, size: 7, ctx: context.Background()}
	var s stage
	s.init(x, &sliceStream{rows, 7}, passOp{})
	out, err := drainRows(&s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 500 {
		t.Fatalf("len = %d", len(out))
	}
	for i, r := range out {
		v, _ := r.vals[0].AsInt()
		if v != int64(i) {
			t.Fatalf("row %d carries %d; order not restored", i, v)
		}
	}
	s.stop()
	x.wg.Wait()
}

// TestSingleMorselAllocParity: a point-shaped plan (project over an
// index-scan filter) over an input of one morsel runs inline whatever the
// worker count — the scan is a cursor the caller pulls, and a stage starts
// its workers only for a second morsel — so it allocates the same at
// Parallelism 1 and 4. A scan on a producer goroutine, or a pool started
// with its stage, fails this at any input size.
func TestSingleMorselAllocParity(t *testing.T) {
	e := env()
	plan := &ProjectNode{
		Input: &IndexScanNode{Table: "drugs", Binding: "drugs", Pred: &Binary{Op: "=", L: &ColRef{Name: "name"}, R: &Literal{Val: model.String("Warfarin")}}},
		Items: []SelectItem{{Expr: &ColRef{Name: "dose"}}},
	}
	allocs := func(workers int) float64 {
		return testing.AllocsPerRun(200, func() {
			res, _, err := ExecuteOpts(plan, e, ExecOptions{Parallelism: workers})
			if err != nil || len(res.Rows) != 1 {
				t.Fatalf("Parallelism %d: %v, %v", workers, res, err)
			}
		})
	}
	serial, parallel := allocs(1), allocs(4)
	t.Logf("one-morsel point plan: %.0f objects at Parallelism 1, %.0f at 4", serial, parallel)
	if serial != parallel {
		t.Errorf("one-morsel point plan allocates %.0f objects at Parallelism 4, %.0f at 1", parallel, serial)
	}
}
