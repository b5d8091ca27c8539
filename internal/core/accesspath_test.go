package core

import (
	"fmt"
	"strings"
	"testing"

	"scdb/internal/datagen"
	"scdb/internal/query"
)

// openLifeSciWith opens a lifesci engine with extra option tweaks and the
// materialization cache off (so repeated statements actually execute).
func openLifeSciWith(t *testing.T, tweak func(*Options)) *DB {
	t.Helper()
	opts := lifesciOptions("")
	opts.DisableMatCache = true
	if tweak != nil {
		tweak(&opts)
	}
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

// TestPlanCacheHitAndInvalidation: the second execution of a statement
// reuses the cached plan; any ontology or catalog change invalidates it.
func TestPlanCacheHitAndInvalidation(t *testing.T) {
	db := openLifeSciWith(t, nil)
	const q = "SELECT name FROM drugbank WHERE name LIKE 'W%' ORDER BY name"

	first, info, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if info.PlanCached {
		t.Error("first execution must plan from scratch")
	}
	second, info, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !info.PlanCached {
		t.Error("second execution must reuse the cached plan")
	}
	if renderRows(first) != renderRows(second) {
		t.Errorf("cached plan changed the answer:\n%s\nvs\n%s", renderRows(first), renderRows(second))
	}
	if st := db.PlanCacheStats(); st.Hits == 0 || st.Size == 0 {
		t.Errorf("PlanCacheStats = %+v", st)
	}

	// A TBox mutation bumps the ontology version: the old key never matches
	// again, so the next run re-plans against the new semantics.
	db.onto.DeclareConcept("FreshConcept")
	if _, info, err = db.Query(q); err != nil {
		t.Fatal(err)
	}
	if info.PlanCached {
		t.Error("ontology change must invalidate the cached plan")
	}
	if _, info, err = db.Query(q); err != nil {
		t.Fatal(err)
	}
	if !info.PlanCached {
		t.Error("re-planned statement must cache again")
	}

	// A catalog change (new table) bumps the schema version.
	if _, err := db.Store().CreateTable("fresh_table"); err != nil {
		t.Fatal(err)
	}
	if _, info, err = db.Query(q); err != nil {
		t.Fatal(err)
	}
	if info.PlanCached {
		t.Error("schema change must invalidate the cached plan")
	}
}

// TestPlanCacheCarriesMatKey: the materialization-cache key is the
// statement's canonical text whether the plan cache hits or misses. A hit
// renders it from the entry's statement, so that must render what the miss
// did; another spelling of the statement has the same shape, so it hits
// the plan cache and renders the same key.
func TestPlanCacheCarriesMatKey(t *testing.T) {
	db := openLifeSciWith(t, func(o *Options) { o.DisableMatCache = false })
	const q = "SELECT name FROM drugbank WHERE name LIKE 'W%' ORDER BY name"
	stmt, err := query.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct{ planCached, cacheHit bool }{{false, false}, {true, true}} {
		_, info, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if info.PlanCached != want.planCached || info.CacheHit != want.cacheHit {
			t.Errorf("run %d: plan cached %v, result cached %v; want %+v", i, info.PlanCached, info.CacheHit, want)
		}
	}
	pk, args, err := planKey(nil, nil, db.store.SchemaVersion(), db.base+db.onto.Version(), q)
	if err != nil {
		t.Fatal(err)
	}
	ent, _ := db.plans.Get(pk)
	if ent == nil || ent.stmt.StringWith(args) != stmt.String() {
		t.Fatalf("plan-cache entry %+v, want key %q", ent, stmt.String())
	}
	_, info, err := db.Query("SELECT  name FROM drugbank  WHERE name LIKE 'W%' ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if !info.PlanCached || !info.CacheHit {
		t.Errorf("respelled statement: plan cached %v, result cached %v; want a plan hit and a result hit", info.PlanCached, info.CacheHit)
	}
}

// TestPlanCacheBounded: the cache never exceeds its capacity.
func TestPlanCacheBounded(t *testing.T) {
	db := openLifeSciWith(t, nil)
	db.plans = query.NewShapeCache[*planEntry](2)
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf("SELECT name FROM drugbank ORDER BY name LIMIT %d", i+1)
		if _, _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.PlanCacheStats(); st.Size > 2 {
		t.Errorf("cache size %d exceeds capacity 2", st.Size)
	}
}

// TestEplainStatementsNotPlanCached: EXPLAIN variants are never cached (the
// cached entry would carry no operator stats) and never hit.
func TestExplainStatementsNotPlanCached(t *testing.T) {
	db := openLifeSciWith(t, nil)
	for i := 0; i < 2; i++ {
		_, info, err := db.Query("EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM drugbank")
		if err != nil {
			t.Fatal(err)
		}
		if info.PlanCached {
			t.Errorf("run %d: EXPLAIN ANALYZE must not be plan-cached", i)
		}
	}
}

// TestAccessPathDifferential: the full SCQL corpus must answer
// byte-identically with pruning disabled, with index scans disabled, and
// with access-path planning off entirely. (The corpus aggregates are
// integer COUNTs with explicit ORDER BY, so results are order- and
// merge-insensitive across plan shapes.)
func TestAccessPathDifferential(t *testing.T) {
	baseline := openLifeSciWith(t, nil)
	variants := map[string]*DB{
		"no-pruning":      openLifeSciWith(t, func(o *Options) { o.DisableZonePruning = true }),
		"no-index":        openLifeSciWith(t, func(o *Options) { o.DisableIndexScan = true }),
		"no-access-paths": openLifeSciWith(t, func(o *Options) { o.DisableAccessPaths = true }),
	}
	// Pin indexes so the default engine exercises the index path even on
	// these small tables (auto-curation requires 64+ rows).
	for _, tbl := range []string{"drugbank", "ctd", "uniprot"} {
		tb, ok := baseline.Store().Table(tbl)
		if !ok {
			t.Fatalf("missing table %q", tbl)
		}
		if err := tb.CreateIndex("name"); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range engineCorpus {
		want, _, err := baseline.Query(src)
		if err != nil {
			t.Fatalf("baseline %q: %v", src, err)
		}
		for name, db := range variants {
			got, _, err := db.Query(src)
			if err != nil {
				t.Fatalf("%s %q: %v", name, src, err)
			}
			if renderRows(got) != renderRows(want) {
				t.Errorf("%s diverged on %q:\nbaseline:\n%s\n%s:\n%s",
					name, src, renderRows(want), name, renderRows(got))
			}
		}
		// Run the baseline again so the second pass goes through the plan
		// cache — cached plans must not change answers either.
		again, _, err := baseline.Query(src)
		if err != nil {
			t.Fatalf("baseline repeat %q: %v", src, err)
		}
		if renderRows(again) != renderRows(want) {
			t.Errorf("plan-cached repeat diverged on %q", src)
		}
	}
}

// TestExplainAnalyzeIndexScan: equality predicates plan as IndexScan, and
// the ANALYZE profile reports the chosen index and pruning counters.
func TestExplainAnalyzeIndexScan(t *testing.T) {
	db := openLifeSciWith(t, nil)
	tb, _ := db.Store().Table("drugbank")
	if err := tb.CreateIndex("name"); err != nil {
		t.Fatal(err)
	}
	res, info, err := db.Query("EXPLAIN ANALYZE SELECT name FROM drugbank WHERE name = 'Warfarin'")
	if err != nil {
		t.Fatal(err)
	}
	text := renderRows(res)
	for _, want := range []string{"IndexScan drugbank", "pruned=", "index: drugbank.name"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, text)
		}
	}
	if info.OperatorStats == nil {
		t.Fatal("no operator stats")
	}
	// The plain plan shows the pushed predicate on the IndexScan node.
	ex, err := explain(db, "SELECT name FROM drugbank WHERE name = 'Warfarin'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Plan, "IndexScan drugbank") {
		t.Errorf("EXPLAIN plan lacks IndexScan:\n%s", ex.Plan)
	}
	// The executed query answered correctly through the index.
	rows, _, err := db.Query("SELECT name FROM drugbank WHERE name = 'Warfarin'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 1 {
		t.Errorf("rows = %v", rows.Rows)
	}
	stats := db.IndexStats()
	var hit bool
	for _, st := range stats {
		if st.Table == "drugbank" && st.Attr == "name" && st.Hits > 0 {
			hit = true
		}
	}
	if !hit {
		t.Errorf("index never credited a hit: %+v", stats)
	}
}
