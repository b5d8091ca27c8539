package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"scdb"
	"scdb/internal/query"
)

// stmtGen draws statements over pharma_a from a small grammar: items from
// {group column, COUNT(*), COUNT/SUM/AVG/MIN/MAX(col), arithmetic and scalar
// operators over them} × GROUP BY {none, one, two columns} × WHERE (keyed
// or not) × HAVING
// × DISTINCT × ORDER BY × LIMIT, plus plain selections. Every statement
// orders by all of its output columns, so rows that tie are byte-identical
// and the answer has one rendering on every topology; a plain selection
// without DISTINCT may order by columns it does not select as well.
type stmtGen struct{ r *rand.Rand }

func (g stmtGen) pick(xs ...string) string { return xs[g.r.Intn(len(xs))] }
func (g stmtGen) chance(p float64) bool    { return g.r.Float64() < p }

func (g stmtGen) agg() string {
	num := g.pick("price", "q", "rating")
	return g.pick(
		"COUNT(*)", "COUNT("+num+")", "COUNT(rating)",
		"SUM("+num+")", "AVG("+num+")", "MIN("+num+")", "MAX("+num+")",
		"MIN(name)", "MAX(name)",
	)
}

// numAgg is an aggregate whose value is numeric or NULL.
func (g stmtGen) numAgg() string {
	num := g.pick("price", "q", "rating")
	return g.pick("COUNT(*)", "COUNT("+num+")", "SUM("+num+")", "AVG("+num+")", "MIN("+num+")", "MAX("+num+")")
}

// item is one aggregate expression; the later shapes put the aggregate
// under a unary operator, IS NULL, IN or a scalar call. Divisors are
// positive: 0 / -x is -0, which ties with 0 and renders differently.
func (g stmtGen) item() string {
	a, b := g.numAgg(), g.numAgg()
	k := strconv.Itoa(g.r.Intn(40))
	return g.pick(
		g.agg(), g.agg(), g.agg(),
		a+" "+g.pick("+", "-", "*")+" "+b,
		a+" "+g.pick("+", "-", "*")+" "+k,
		"SUM(price) / COUNT(*)",
		a+" / (COUNT(*) + "+k+")",
		"ABS("+a+" - "+k+")",
		"-"+a,
		a+" IS NULL",
		"COALESCE("+a+", -1)",
		"COUNT(*) IN (1, 2, 4)",
		"LOWER(MIN(name))",
	)
}

// where draws a condition, a _key = '<corpus key>' conjunct, both or
// neither; two of the keys drawn are absent from the corpus.
func (g stmtGen) where() string {
	var conds []string
	if g.chance(0.5) {
		conds = append(conds, g.pick(
			"price > 30", "price <= 60", "category != 'cat1'", "rating IS NOT NULL",
			"q = 2", "price > 1000", "name LIKE '%in%'",
		))
	}
	if g.chance(0.2) {
		conds = append(conds, fmt.Sprintf("_key = 'A-%02d'", g.r.Intn(len(drugNames)+2)))
	}
	if len(conds) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(conds, " AND ")
}

func (g stmtGen) having(groups []string) string {
	if g.chance(0.6) {
		return ""
	}
	conds := []string{
		"COUNT(*) >= 2", "NOT (COUNT(*) < 2)", "SUM(price) IN (84, 92, 176, 186)",
		"MAX(rating) IS NULL", "MIN(rating) IS NOT NULL", "AVG(price) > 40 OR COUNT(q) = 1",
		"ABS(SUM(q) - 2) <= 1",
	}
	for _, col := range groups {
		conds = append(conds, col+" IS NOT NULL AND COUNT(*) > 1")
	}
	return " HAVING " + g.pick(conds...)
}

// tail orders by every output column, in a random order and direction, and
// maybe adds a LIMIT.
func (g stmtGen) tail(cols []string) string {
	keys := append([]string(nil), cols...)
	g.r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for i := range keys {
		if g.chance(0.4) {
			keys[i] += " DESC"
		}
	}
	s := " ORDER BY " + strings.Join(keys, ", ")
	if g.chance(0.05) {
		s = " ORDER BY SUM(price)" // sort runs over output columns: an error everywhere
	}
	if g.chance(0.4) {
		s += fmt.Sprintf(" LIMIT %d", 1+g.r.Intn(5))
	}
	return s
}

func (g stmtGen) distinct() string {
	if g.chance(0.2) {
		return "DISTINCT "
	}
	return ""
}

func (g stmtGen) stmt() string {
	if g.chance(0.2) {
		// A plain selection. Without aliases: an engine sorts a plain
		// selection before it projects, so only column names resolve. The
		// unique name keeps rows apart unless DISTINCT does.
		cols := []string{"name"}
		distinct := g.distinct()
		if distinct != "" {
			cols = nil
		}
		for _, c := range []string{"category", "price", "q", "rating"} {
			if g.chance(0.5) {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			cols = []string{"category"}
		}
		keys := cols
		if distinct == "" && g.chance(0.5) {
			// Keys the projection drops: an engine sorts before it projects,
			// and a router must ship them to sort by.
			keys = append([]string(nil), cols...)
			for _, k := range []string{"price", "q", "category", "price * q", "-rating"} {
				if g.chance(0.4) && !slices.Contains(cols, k) {
					keys = append(keys, k)
				}
			}
		}
		return "SELECT " + distinct + strings.Join(cols, ", ") + " FROM pharma_a" + g.where() + g.tail(keys)
	}
	var groups []string
	for _, c := range []string{"category", "q", "rating"} {
		if len(groups) < 2 && g.chance(0.4) {
			groups = append(groups, c)
		}
	}
	var items, cols []string
	add := func(expr string) {
		cols = append(cols, fmt.Sprintf("c%d", len(cols)))
		items = append(items, expr+" AS "+cols[len(cols)-1])
	}
	for _, col := range groups {
		if g.chance(0.8) {
			add(col)
		}
	}
	for n := 1 + g.r.Intn(3); n > 0; n-- {
		add(g.item())
	}
	having := g.having(groups)
	if having == "" && g.chance(0.05) {
		// Not numeric: an error everywhere. Only without HAVING, because an
		// engine finalizes a call only for groups that survive it, while
		// shards finalize every partial they ship.
		add("SUM(name)")
	}
	s := "SELECT " + g.distinct() + strings.Join(items, ", ") + " FROM pharma_a" + g.where()
	if len(groups) > 0 {
		s += " GROUP BY " + strings.Join(groups, ", ")
	}
	return s + having + g.tail(cols)
}

// sortedLines is render with the data lines sorted: what two answers
// without an ORDER BY can be compared by.
func sortedLines(rows *scdb.Rows) string {
	lines := strings.Split(strings.TrimSuffix(render(rows), "\n"), "\n")
	sort.Strings(lines[1:])
	return strings.Join(lines, "\n")
}

// TestClusterDifferentialGenerated compares an embedded engine, a 1-shard
// and a 3-shard cluster over the same corpus, statement by statement: the
// fixed differentialQueries and keyedQueries, then statements drawn from
// stmtGen. Answers
// must agree byte for byte, and when one side fails all must.
func TestClusterDifferentialGenerated(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("SCDB_DIFF_SEED"); s != "" {
		var err error
		if seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			t.Fatalf("SCDB_DIFF_SEED=%q: %v", s, err)
		}
	}
	db, err := scdb.Open(scdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, src := range corpus() {
		if err := db.IngestCtx(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}
	c1 := newTestCluster(t, 1)
	c3 := newTestCluster(t, 3)
	ingestCorpus(t, c1)
	ingestCorpus(t, c3)

	compare := func(q string) {
		t.Helper()
		stmt, err := query.Parse(q)
		if err != nil {
			t.Fatalf("seed %d: generated statement does not parse: %s: %v", seed, q, err)
		}
		r0, err0 := db.Query(q)
		r1, err1 := c1.rc.Query(q)
		r3, err3 := c3.rc.Query(q)
		if err0 != nil || err1 != nil || err3 != nil {
			if err0 == nil || err1 == nil || err3 == nil {
				t.Errorf("seed %d: %s fails on some topologies only:\nembedded: %v\n1 shard: %v\n3 shards: %v", seed, q, err0, err1, err3)
			}
			return
		}
		g0, g1, g3 := render(r0), render(r1), render(r3)
		if g1 != g3 {
			t.Errorf("seed %d: %s diverges:\n1 shard:\n%s\n3 shards:\n%s", seed, q, g1, g3)
		}
		if len(stmt.OrderBy) == 0 {
			// An engine answers in storage order, a router in canonical order.
			g0, g1 = sortedLines(r0), sortedLines(r1)
		}
		if g0 != g1 {
			t.Errorf("seed %d: %s diverges:\nembedded:\n%s\n1 shard:\n%s", seed, q, g0, g1)
		}
	}
	for _, q := range slices.Concat(differentialQueries, keyedQueries) {
		compare(q)
	}
	// The drifts this test was written against, whatever the seed draws.
	for _, q := range []string{
		"SELECT q, COUNT(*) AS n FROM pharma_a GROUP BY q ORDER BY q",
		"SELECT category, COUNT(*) AS n FROM pharma_a GROUP BY category HAVING NOT (COUNT(*) < 3) ORDER BY category",
		"SELECT category, ABS(SUM(price)) AS s FROM pharma_a GROUP BY category HAVING SUM(price) IN (176, 204, 232) ORDER BY s DESC",
		"SELECT category FROM pharma_a GROUP BY category ORDER BY SUM(price) DESC",
		"SELECT COUNT(*) - 2 AS n FROM pharma_a WHERE price > 1000",
		// ORDER BY a column the projection drops, with and without top-K
		// push-down, as a bare column, under an operator, and qualified.
		"SELECT name FROM pharma_a ORDER BY price, name",
		"SELECT name FROM pharma_a ORDER BY price DESC, name LIMIT 4",
		"SELECT name, category FROM pharma_a ORDER BY category, -price, name LIMIT 7",
		"SELECT a.name FROM pharma_a AS a ORDER BY a.price * 2 DESC, a.key",
	} {
		compare(q)
	}
	g := stmtGen{rand.New(rand.NewSource(seed))}
	for i := 0; i < 300; i++ {
		compare(g.stmt())
	}
}
