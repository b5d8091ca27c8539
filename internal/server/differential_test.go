package server_test

import (
	"slices"
	"strings"
	"testing"
	"time"

	"scdb"
)

// scqlCorpus is the engine corpus (internal/core keeps the master copy):
// storage tables, joins, aggregates, the claims relation under each answer
// mode, concept scans and the graph/semantic predicates; then every
// relation-valued function.
var scqlCorpus = append([]string{
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
	"SELECT COUNT(*) AS n FROM ProbeThing WITH SEMANTICS",
}, relationCorpus...)

// curationCorpus tells a database what a curator knows: the clinical
// claims, an axiom and the richness weights.
var curationCorpus = []string{
	scdb.ClinicalClaims,
	"ADD AXIOMS 'concept ProbeThing', 'sub Drug ProbeThing'",
	"REFRESH RICHNESS",
}

// relationCorpus calls every relation-valued function; each answers rows
// on the differential's data but inconsistencies(), which has none.
var relationCorpus = []string{
	"SELECT entity, role, filler, because FROM witnesses()",
	"SELECT entity, concept_a, concept_b FROM inconsistencies()",
	"SELECT entity, attr, value, sources, reconcilable FROM conflicts()",
	"SELECT value, support FROM resolve('Warfarin', 'effective_dose_mg', 'richness')",
	"SELECT * FROM justify('Warfarin', 'effective_dose_mg', 5.0, 0.5) ORDER BY context",
	"SELECT step, entity FROM discover('Methotrexate', 12, 7) ORDER BY step",
	"SELECT value, agreement, asks, spent FROM crowd('Warfarin', 'effective_dose_mg', 15, 0.85, 7)",
	`SELECT "from", predicate, "to", confidence FROM suggest_links('Aminopterin', 'targets', 3)`,
	"SELECT * FROM richness() ORDER BY source",
	"SELECT world, context, probability, value, source, marginal FROM worlds('Warfarin', 'effective_dose_mg')",
}

// graphPredicate reports whether a statement asks ISA, REACHES or LINKED.
// Each must answer a row: one that answers none compares nothing.
func graphPredicate(q string) bool {
	return strings.Contains(q, "ISA(") || strings.Contains(q, "REACHES(") || strings.Contains(q, "LINKED(")
}

// TestNetworkDifferential: the full SCQL corpus must come back
// byte-identical whether the engine is embedded or reached over the wire
// — and the server-side database is populated through network ingest and
// told the curation statements over the wire, so both directions of the
// wire's value encoding are exercised.
func TestNetworkDifferential(t *testing.T) {
	embedded := openDB(t, lifesciOptions())
	for _, src := range scdb.LifeSciSample(1, 100, 60, 40) {
		if err := embedded.Ingest(src); err != nil {
			t.Fatal(err)
		}
	}

	remote := openDB(t, lifesciOptions())
	_, addr := startServer(t, remote, nil)
	c := dial(t, addr)
	for _, src := range scdb.LifeSciSample(1, 100, 60, 40) {
		if err := c.Ingest(src); err != nil {
			t.Fatalf("network ingest %s: %v", src.Name, err)
		}
	}
	for _, q := range curationCorpus {
		want, err := embedded.Query(q)
		if err != nil {
			t.Fatalf("embedded %q: %v", q, err)
		}
		got, err := c.Query(q)
		if err != nil {
			t.Fatalf("network %q: %v", q, err)
		}
		if render(got) != render(want) {
			t.Errorf("%q answered differently over the wire:\nembedded:\n%s\nnetwork:\n%s", q, render(want), render(got))
		}
	}

	for _, q := range scqlCorpus {
		want, err := embedded.Query(q)
		if err != nil {
			t.Fatalf("embedded %q: %v", q, err)
		}
		if len(want.Data) == 0 && (slices.Contains(relationCorpus, q) && !strings.Contains(q, "inconsistencies()") || graphPredicate(q)) {
			t.Errorf("%q answers no rows", q)
		}
		got, err := c.Query(q)
		if err != nil {
			t.Fatalf("network %q: %v", q, err)
		}
		if render(got) != render(want) {
			t.Errorf("%q diverged over the wire:\nembedded:\n%s\nnetwork:\n%s",
				q, render(want), render(got))
		}
	}

	// The info surface travels too: a plain statement carries no
	// explanation, EXPLAIN ANALYZE carries the plan, the rewrites and the
	// operator-stats tree.
	_, info, err := c.QueryInfo(scqlCorpus[0])
	if err != nil {
		t.Fatal(err)
	}
	if info.Plan != "" || len(info.Rules) != 0 || info.OperatorStats != "" {
		t.Errorf("network QueryInfo of a plain statement: plan=%q rules=%v stats=%q", info.Plan, info.Rules, info.OperatorStats)
	}
	_, ainfo, err := c.QueryInfo("EXPLAIN ANALYZE " + scqlCorpus[0])
	if err != nil {
		t.Fatal(err)
	}
	_, local, err := embedded.QueryInfo("EXPLAIN ANALYZE " + scqlCorpus[0])
	if err != nil {
		t.Fatal(err)
	}
	if ainfo.Plan == "" || ainfo.Plan != local.Plan || ainfo.OperatorStats == "" || ainfo.EstimatedCost <= 0 {
		t.Errorf("network EXPLAIN ANALYZE: plan=%q (embedded %q) stats=%q cost=%v", ainfo.Plan, local.Plan, ainfo.OperatorStats, ainfo.EstimatedCost)
	}

	// One explain path: DB.Explain, the EXPLAIN statement embedded and the
	// EXPLAIN statement over the wire give one plan, rewrite log and cost.
	for _, q := range scqlCorpus {
		explained, err := embedded.Explain(q)
		if err != nil {
			t.Fatalf("embedded Explain %q: %v", q, err)
		}
		_, stmt, err := embedded.QueryInfo("EXPLAIN " + q)
		if err != nil {
			t.Fatalf("embedded EXPLAIN %q: %v", q, err)
		}
		_, wire, err := c.QueryInfo("EXPLAIN " + q)
		if err != nil {
			t.Fatalf("network EXPLAIN %q: %v", q, err)
		}
		if explained.Plan == "" {
			t.Errorf("%q: empty plan", q)
		}
		for _, got := range []*scdb.QueryInfo{stmt, wire} {
			if got.Plan != explained.Plan || !slices.Equal(got.Rules, explained.Rules) || got.EstimatedCost != explained.EstimatedCost {
				t.Errorf("%q explained two ways:\nExplain: %q %v %v\nEXPLAIN: %q %v %v", q,
					explained.Plan, explained.Rules, explained.EstimatedCost, got.Plan, got.Rules, got.EstimatedCost)
			}
		}
	}
}

// TestStatsOverWire: the node's sys.metrics carries the engine's numbers,
// the plan cache's and the server's own counters, read over the wire.
func TestStatsOverWire(t *testing.T) {
	db := openDB(t, lifesciOptions())
	for _, src := range scdb.LifeSciSample(1, 20, 10, 5) {
		if err := db.Ingest(src); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startServer(t, db, nil)
	c := dial(t, addr)
	if _, err := c.Query("SELECT COUNT(*) AS n FROM drugbank"); err != nil {
		t.Fatal(err)
	}
	// The server counts a query after writing its result frame, so a read
	// right behind the answer can run first; the reads count as queries
	// too.
	var m map[string]float64
	reads := 0
	waitUntil(t, 4*time.Second, func() bool {
		m = metrics(t, c)
		reads++
		return m["server.op.query.latency_us_count"] >= 1
	}, "the query to reach the per-op counters")
	if n := m["server.op.query.latency_us_count"]; n > float64(reads) {
		t.Errorf("query count %v after one query and %d reads", n, reads)
	}
	if m["engine.tables"] == 0 || m["engine.entities"] == 0 {
		t.Errorf("engine numbers empty: %v", m)
	}
	if m["server.conns_open"] != 1 || m["server.conns_total"] != 1 {
		t.Errorf("conns=%v total=%v, want 1/1", m["server.conns_open"], m["server.conns_total"])
	}
	if m["plan_cache.hits"]+m["plan_cache.misses"] == 0 {
		t.Error("plan-cache counters did not travel")
	}
}
