package query

import (
	"context"
	"strings"
	"sync"
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
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	e := env()
	plan, err := BuildPlan(stmt, e)
	if err != nil {
		return nil, err
	}
	opts.Semantic = stmt.Semantics
	res, _, err := ExecuteOpts(plan, e, opts)
	return res, err
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
	res, _, err := ExecuteOpts(plan, env, ExecOptions{Parallelism: 4, MorselSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	// 10000 rows / 10 per morsel = 1000 chunks; the limit needs 1. Allow
	// generous slack for pipeline buffering (channel depth + in-flight
	// workers), which is bounded by a constant, not the table size.
	if n := env.emitted.Load(); n > 50 {
		t.Errorf("scan emitted %d chunks after LIMIT 5; early stop is broken", n)
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

// TestParMapOrdering: parMap returns results in morsel order regardless of
// completion order.
func TestParMapOrdering(t *testing.T) {
	rows := make([]Row, 100)
	got, err := parMap(sliceStream(rows, 1), 8, func(m morsel) (int, error) {
		return m.idx, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, v)
		}
	}
}

// TestParStageOrdering: parStage restores morsel order under contention.
func TestParStageOrdering(t *testing.T) {
	rows := make([]Row, 500)
	for i := range rows {
		rows[i] = Row{vals: []model.Value{model.Int(int64(i))}}
	}
	var wg sync.WaitGroup
	s := parStage(sliceStream(rows, 7), 8, &wg, func(m morsel) (morsel, error) {
		return m, nil
	})
	out, err := drainRows(context.Background(), s)
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
	wg.Wait()
}
