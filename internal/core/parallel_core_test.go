package core

import (
	"strings"
	"sync"
	"testing"

	"scdb/internal/datagen"
	"scdb/internal/model"
	"scdb/internal/query"
)

// openLifeSciOpts is openLifeSci with executor knobs.
func openLifeSciOpts(t *testing.T, parallelism, morselSize int) *DB {
	t.Helper()
	opts := lifesciOptions("")
	opts.Parallelism = parallelism
	opts.MorselSize = morselSize
	opts.DisableMatCache = true
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, ds := range datagen.LifeSci(1, 0, 0, 0) {
		if err := db.Ingest(ds); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func renderRows(res *query.Result) string {
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

// engineCorpus covers every layer the engine's queryEnv serves: storage
// tables, the claims virtual table under each answer mode, concept scans
// with and without inference, and the graph/semantic predicates over
// concept scans, whose rows carry the _id they read (a source table's row
// has none).
var engineCorpus = []string{
	"SELECT * FROM drugbank ORDER BY name",
	"SELECT name FROM drugbank WHERE name LIKE 'W%' ORDER BY name",
	"SELECT d.name, c.disease_name FROM drugbank AS d JOIN ctd AS c ON d.name = c.chemical_name ORDER BY d.name, c.disease_name",
	"SELECT COUNT(*) AS n FROM uniprot",
	"SELECT symbol, COUNT(*) AS n FROM uniprot GROUP BY symbol ORDER BY n DESC, symbol LIMIT 5",
	"SELECT DISTINCT disease_name FROM ctd WHERE disease_name IS NOT NULL ORDER BY disease_name",
	"SELECT _key FROM Chemical ORDER BY _key WITH SEMANTICS",
	"SELECT _key FROM Drug ORDER BY _key LIMIT 4",
	"SELECT d.name FROM Drug AS d WHERE ISA(d._id, 'Chemical') ORDER BY d.name WITH SEMANTICS",
	"SELECT d.name FROM Drug AS d WHERE REACHES(d._id, 'Osteosarcoma', 3) ORDER BY d.name",
	"SELECT d._key, g._key FROM Drug AS d JOIN Gene AS g ON LINKED(d._id, g._id, 'targets') ORDER BY d._key, g._key",
	"SELECT g._key, h._key FROM Gene AS g JOIN Gene AS h ON LINKED(g._id, h._id) ORDER BY g._key, h._key",
	"SELECT d._key, g._key FROM Drug AS d JOIN Gene AS g ON LINKED(d._id, g._id, 'hasTarget') ORDER BY d._key, g._key WITH SEMANTICS",
	"SELECT attr, COUNT(*) AS n FROM claims GROUP BY attr ORDER BY attr",
	"SELECT attr FROM claims ORDER BY attr LIMIT 5 UNDER CERTAIN",
	"SELECT attr, justification FROM claims ORDER BY attr LIMIT 5 UNDER FUZZY(0.5)",
	"SELECT name FROM drugbank ORDER BY name LIMIT 2",
	"SELECT COUNT(*) AS n FROM drugbank WHERE name IS NOT NULL",
}

// TestEngineParallelDifferential: the full engine must answer the corpus
// byte-identically at Parallelism 1 and at a parallel setting with a tiny
// morsel size (forcing multi-morsel streams through every operator).
func TestEngineParallelDifferential(t *testing.T) {
	serial := openLifeSciOpts(t, 1, 3)
	parallel := openLifeSciOpts(t, 8, 3)
	for _, src := range engineCorpus {
		want, _, err := serial.Query(src)
		if err != nil {
			t.Fatalf("serial %q: %v", src, err)
		}
		if graphPredicate(src) && len(want.Rows) == 0 {
			t.Errorf("%q answers no rows", src)
		}
		got, _, err := parallel.Query(src)
		if err != nil {
			t.Fatalf("parallel %q: %v", src, err)
		}
		if renderRows(got) != renderRows(want) {
			t.Errorf("%q diverged:\nserial:\n%s\nparallel:\n%s",
				src, renderRows(want), renderRows(got))
		}
	}
}

// TestLookupNameMemoConcurrency: REACHES resolves its target through the
// per-statement name memo, and REACHES and LINKED take the statement's
// snapshot and predicate masks from its walk memo; with workers evaluating
// predicates concurrently both memos must be safe. Run under -race to
// catch regressions.
func TestLookupNameMemoConcurrency(t *testing.T) {
	db := openLifeSciOpts(t, 4, 2)
	const q = "SELECT d.name FROM Drug AS d WHERE REACHES(d._id, 'Osteosarcoma', 3) OR REACHES(d._id, 'Inflammation', 2) OR LINKED(d._id, d._id, 'hasTarget') ORDER BY d.name WITH SEMANTICS"
	want, _, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("the statement answers no rows, so it never reaches the memo")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := db.Query(q)
			if err != nil {
				errs <- err
				return
			}
			if renderRows(res) != renderRows(want) {
				errs <- &queryMismatch{}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// graphPredicate reports whether a statement asks ISA, REACHES or LINKED.
// A differential holds each such statement to at least one row: one that
// answers none compares nothing.
func graphPredicate(src string) bool {
	return strings.Contains(src, "ISA(") || strings.Contains(src, "REACHES(") || strings.Contains(src, "LINKED(")
}

type queryMismatch struct{}

func (*queryMismatch) Error() string { return "concurrent query diverged from sequential result" }

// TestExplainStatement: EXPLAIN returns the optimized plan as rows without
// executing, and never touches the materialization cache.
func TestExplainStatement(t *testing.T) {
	db := openLifeSci(t)
	res, info, err := db.Query("EXPLAIN SELECT name FROM drugbank WHERE name LIKE 'W%' ORDER BY name LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Errorf("columns = %v", res.Columns)
	}
	text := renderRows(res)
	for _, want := range []string{"Project name", "TopK 2 BY name", "Filter", "Scan drugbank"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, text)
		}
	}
	if info.OperatorStats != nil {
		t.Error("plain EXPLAIN must not execute")
	}
	// EXPLAIN must not populate or hit the cache.
	_, info, err = db.Query("EXPLAIN SELECT name FROM drugbank WHERE name LIKE 'W%' ORDER BY name LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if info.CacheHit {
		t.Error("EXPLAIN must bypass the materialization cache")
	}
}

// TestExplainAnalyzeStatement: EXPLAIN ANALYZE executes and reports actual
// per-operator cardinalities.
func TestExplainAnalyzeStatement(t *testing.T) {
	db := openLifeSci(t)
	res, info, err := db.Query("EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM drugbank")
	if err != nil {
		t.Fatal(err)
	}
	text := renderRows(res)
	for _, want := range []string{"Aggregate", "Scan drugbank", "in=", "out=1", "morsels=", "time="} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, text)
		}
	}
	if info.OperatorStats == nil {
		t.Fatal("EXPLAIN ANALYZE must attach operator stats")
	}
	if info.OperatorStats.RowsOut != 1 {
		t.Errorf("root RowsOut = %d, want 1", info.OperatorStats.RowsOut)
	}
}

// TestQueryInfoOperatorStats: a plain statement carries no explanation (no
// plan text, no rewrite log, no operator stats) but still reports its cost
// estimate and EstimatedMorsels; EXPLAIN ANALYZE carries the stats tree,
// whose root counts the statement's rows, and TRACE the plan and the tree.
func TestQueryInfoOperatorStats(t *testing.T) {
	opts := lifesciOptions("")
	opts.DisableMatCache = true
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, ds := range datagen.LifeSci(1, 0, 0, 0) {
		if err := db.Ingest(ds); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT name FROM drugbank WHERE name >= 'A' ORDER BY name"
	for _, src := range []string{q, q} { // a plan-cache miss, then a hit
		res, info, err := db.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if info.OperatorStats != nil || info.Plan != "" || len(info.Rules) != 0 {
			t.Errorf("plain statement (plan cached %v) carries an explanation: stats %v, plan %q, rules %v",
				info.PlanCached, info.OperatorStats, info.Plan, info.Rules)
		}
		if info.EstimatedMorsels <= 0 || info.EstimatedCost <= 0 || len(res.Rows) == 0 {
			t.Errorf("EstimatedMorsels = %d, EstimatedCost = %v, rows = %d", info.EstimatedMorsels, info.EstimatedCost, len(res.Rows))
		}
	}
	plain, _, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := db.Query("EXPLAIN ANALYZE " + q)
	if err != nil {
		t.Fatal(err)
	}
	if info.OperatorStats == nil {
		t.Fatal("EXPLAIN ANALYZE must carry operator stats")
	}
	if info.OperatorStats.RowsOut != int64(len(plain.Rows)) {
		t.Errorf("stats RowsOut = %d, rows = %d", info.OperatorStats.RowsOut, len(plain.Rows))
	}
	if info.Plan == "" || len(info.Rules) == 0 {
		t.Errorf("EXPLAIN ANALYZE plan %q, rules %v", info.Plan, info.Rules)
	}
	for range 2 { // a plan-cache miss, then a hit
		_, info, err = db.Query("TRACE " + q)
		if err != nil {
			t.Fatal(err)
		}
		if info.OperatorStats == nil || info.Plan == "" || len(info.Rules) == 0 {
			t.Errorf("TRACE (plan cached %v) stats %v, plan %q, rules %v", info.PlanCached, info.OperatorStats, info.Plan, info.Rules)
		}
	}
	ex, err := explain(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.EstimatedMorsels <= 0 || ex.Plan == "" || len(ex.Rules) == 0 {
		t.Errorf("EXPLAIN EstimatedMorsels = %d, plan %q, rules %v", ex.EstimatedMorsels, ex.Plan, ex.Rules)
	}
}

// TestTopKFusionInEngine: LIMIT over ORDER BY plans as TopK and matches the
// unfused semantics.
func TestTopKFusionInEngine(t *testing.T) {
	db := openLifeSci(t)
	info, err := explain(db, "SELECT name FROM drugbank ORDER BY name LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info.Plan, "TopK 3 BY name") {
		t.Errorf("plan not fused to TopK:\n%s", info.Plan)
	}
	res, _, err := db.Query("SELECT name FROM drugbank ORDER BY name LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := db.Query("SELECT name FROM drugbank ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := range res.Rows {
		if !model.Equal(res.Rows[i][0], all.Rows[i][0]) {
			t.Errorf("row %d: TopK %v != Sort %v", i, res.Rows[i][0], all.Rows[i][0])
		}
	}
}
