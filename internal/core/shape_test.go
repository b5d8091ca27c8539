package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"scdb/internal/curate"
	"scdb/internal/model"
	"scdb/internal/query"
)

// shapeTables are the lifesci tables the shape generator reads, each column
// with the kind of its literals: s (string), i (int) or f (float).
var shapeTables = []struct {
	name string
	cols [][2]string
}{
	{"drugbank", [][2]string{{"_key", "s"}, {"name", "s"}}},
	{"uniprot", [][2]string{{"_key", "s"}, {"symbol", "s"}, {"function", "s"}}},
	{"ctd", [][2]string{{"_key", "s"}, {"disease_name", "s"}, {"gene_symbol", "s"}}},
	{"_curate_links", [][2]string{{"seq", "i"}, {"conf", "f"}, {"predicate", "s"}, {"from_key", "s"}}},
}

// twoTexts builds one statement under two sets of literal values.
type twoTexts struct{ a, b strings.Builder }

func (t *twoTexts) same(s ...string) {
	for _, x := range s {
		t.a.WriteString(x)
		t.b.WriteString(x)
	}
}

func (t *twoTexts) lit(a, b string) {
	t.a.WriteString(a)
	t.b.WriteString(b)
}

// shapeGen draws statements over shapeTables whose comparison literals
// differ between the two texts wherever the plan cache lifts them, and
// agree wherever it must not (a literal on the left, before or after
// arithmetic, in IN or LIKE). Strings come from the stored values, so the
// comparisons select rows.
type shapeGen struct {
	r     *rand.Rand
	words map[string][]string // by table.column
}

func newShapeGen(t *testing.T, db *DB, seed int64) *shapeGen {
	g := &shapeGen{r: rand.New(rand.NewSource(seed)), words: map[string][]string{}}
	for _, tb := range shapeTables {
		for _, c := range tb.cols {
			if c[1] != "s" {
				continue
			}
			res, _, err := db.Query(fmt.Sprintf("SELECT DISTINCT %s FROM %s ORDER BY %s LIMIT 40", c[0], tb.name, c[0]))
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range res.Rows {
				if s, ok := row[0].AsString(); ok {
					g.words[tb.name+"."+c[0]] = append(g.words[tb.name+"."+c[0]], s)
				}
			}
		}
	}
	return g
}

// value returns the literal text of a value of the column's kind.
func (g *shapeGen) value(table string, col [2]string) string {
	switch col[1] {
	case "i":
		return fmt.Sprint(g.r.Intn(200))
	case "f":
		return fmt.Sprintf("%.2f", g.r.Float64())
	}
	w := g.words[table+"."+col[0]]
	if len(w) == 0 || g.r.Intn(8) == 0 {
		return "'O''Neil'"
	}
	return "'" + strings.ReplaceAll(w[g.r.Intn(len(w))], "'", "''") + "'"
}

// comparison writes one conjunct over col.
func (g *shapeGen) comparison(t *twoTexts, table, ref string, col [2]string) {
	ops := []string{"=", "!=", "<>", "<", "<=", ">", ">="}
	op := ops[g.r.Intn(len(ops))]
	switch k := g.r.Intn(10); {
	case k == 0:
		v := g.value(table, col)
		t.same(v, " ", op, " ", ref)
	case k == 1 && col[1] == "i":
		v := g.value(table, col)
		t.same(ref, " + 1 ", op, " ", v)
	case k == 2 && col[1] == "i":
		v := g.value(table, col)
		t.same(ref, " ", op, " ", v, " * 2")
	case k == 3:
		v, w := g.value(table, col), g.value(table, col)
		t.same(ref, " IN (", v, ", ", w, ")")
	case k == 4 && col[1] == "s":
		t.same(ref, " LIKE 'A%'")
	default:
		t.same(ref, " ", op, " ")
		t.lit(g.value(table, col), g.value(table, col))
	}
}

// predicate writes one to three conjuncts or disjuncts.
func (g *shapeGen) predicate(t *twoTexts, table string, ref func(string) string, cols [][2]string) {
	for i, n := 0, 1+g.r.Intn(3); i < n; i++ {
		if i > 0 {
			t.same([]string{" AND ", " OR "}[g.r.Intn(2)])
		}
		if g.r.Intn(6) == 0 {
			t.same("NOT ")
		}
		c := cols[g.r.Intn(len(cols))]
		g.comparison(t, table, ref(c[0]), c)
	}
}

// statement returns one statement under both sets of values.
func (g *shapeGen) statement() (string, string) {
	var t twoTexts
	if g.r.Intn(8) == 0 {
		t.same("SELECT u.symbol, c.disease_name FROM uniprot AS u JOIN ctd AS c ON u.symbol = c.gene_symbol AND c.disease_name >= ")
		t.lit(g.value("ctd", [2]string{"disease_name", "s"}), g.value("ctd", [2]string{"disease_name", "s"}))
		t.same(" WHERE ")
		g.predicate(&t, "uniprot", func(c string) string { return "u." + c }, shapeTables[1].cols)
		t.same(" ORDER BY u.symbol, c.disease_name")
		return t.a.String(), t.b.String()
	}
	tb := shapeTables[g.r.Intn(len(shapeTables))]
	ref := func(c string) string { return c }
	alias := ""
	if g.r.Intn(2) == 0 {
		alias = " AS x"
		ref = func(c string) string { return "x." + c }
	}
	first := tb.cols[g.r.Intn(len(tb.cols))]
	switch g.r.Intn(5) {
	case 0: // a grouped selection
		t.same("SELECT ", ref(first[0]), ", COUNT(*) AS n FROM ", tb.name, alias, " WHERE ")
		g.predicate(&t, tb.name, ref, tb.cols)
		t.same(" GROUP BY ", ref(first[0]))
		if g.r.Intn(2) == 0 {
			t.same(" HAVING n >= ")
			t.lit(fmt.Sprint(g.r.Intn(3)), fmt.Sprint(g.r.Intn(3)))
		}
		t.same(" ORDER BY ", ref(first[0]))
	case 1: // a comparison in the select list, named by its text or not
		t.same("SELECT ", ref(first[0]), ", ", ref(first[0]), " = ")
		t.lit(g.value(tb.name, first), g.value(tb.name, first))
		if g.r.Intn(2) == 0 {
			t.same(" AS eq")
		}
		t.same(" FROM ", tb.name, alias, " ORDER BY ", ref(first[0]), " LIMIT 7")
	case 2: // two aggregates spelled alike in the first text only, the
		// second text's matching no row
		v := g.value(tb.name, first)
		t.same("SELECT MAX(", ref(first[0]), " = ", v, ") AS m, MAX(", ref(first[0]), " = ")
		t.lit(v, map[string]string{"s": "'no such value'", "i": "1000", "f": "9.50"}[first[1]])
		t.same(") FROM ", tb.name, alias)
	default:
		t.same("SELECT ")
		if g.r.Intn(4) == 0 {
			t.same("DISTINCT ")
		}
		t.same(ref(first[0]), " FROM ", tb.name, alias, " WHERE ")
		g.predicate(&t, tb.name, ref, tb.cols)
		t.same(" ORDER BY ", ref(first[0]))
		if g.r.Intn(2) == 0 {
			t.same(" DESC")
		}
		if g.r.Intn(2) == 0 {
			t.same(" LIMIT ", fmt.Sprint(1+g.r.Intn(20)))
		}
	}
	return t.a.String(), t.b.String()
}

// bindPlan returns a copy of plan with each Param replaced by the literal
// of its bound value, args[Index]: a fresh plan of the text the values
// came from holds that literal.
func bindPlan(n query.Node, args []model.Value) query.Node {
	x := func(e query.Expr) query.Expr {
		if e == nil {
			return nil
		}
		b, _ := query.Rewrite(e, func(e query.Expr) (query.Expr, error) {
			if p, ok := e.(*query.Param); ok {
				return &query.Literal{Val: args[p.Index]}, nil
			}
			return nil, nil
		})
		return b
	}
	items := func(its []query.SelectItem) []query.SelectItem {
		out := make([]query.SelectItem, len(its))
		for i, it := range its {
			out[i] = query.SelectItem{Expr: x(it.Expr), Alias: it.Alias}
		}
		return out
	}
	keys := func(ks []query.OrderKey) []query.OrderKey {
		out := make([]query.OrderKey, len(ks))
		for i, k := range ks {
			out[i] = query.OrderKey{Expr: x(k.Expr), Desc: k.Desc}
		}
		return out
	}
	switch n := n.(type) {
	case *query.FilterNode:
		return &query.FilterNode{Input: bindPlan(n.Input, args), Pred: x(n.Pred)}
	case *query.IndexScanNode:
		return &query.IndexScanNode{Table: n.Table, Binding: n.Binding, Pred: x(n.Pred), Zone: n.Zone, Params: n.Params}
	case *query.JoinNode:
		return &query.JoinNode{L: bindPlan(n.L, args), R: bindPlan(n.R, args), On: x(n.On)}
	case *query.ProjectNode:
		return &query.ProjectNode{Input: bindPlan(n.Input, args), Star: n.Star, Items: items(n.Items)}
	case *query.AggregateNode:
		gs := make([]query.Expr, len(n.GroupBy))
		for i, g := range n.GroupBy {
			gs[i] = x(g)
		}
		return &query.AggregateNode{Input: bindPlan(n.Input, args), GroupBy: gs, Items: items(n.Items), Having: x(n.Having)}
	case *query.DistinctNode:
		return &query.DistinctNode{Input: bindPlan(n.Input, args)}
	case *query.SortNode:
		return &query.SortNode{Input: bindPlan(n.Input, args), Keys: keys(n.Keys)}
	case *query.LimitNode:
		return &query.LimitNode{Input: bindPlan(n.Input, args), N: n.N}
	case *query.TopKNode:
		return &query.TopKNode{Input: bindPlan(n.Input, args), Keys: keys(n.Keys), N: n.N}
	}
	return n
}

// answer renders a statement's rows, or its error.
func answer(db *DB, src string) (string, *QueryInfo) {
	res, info, err := db.Query(src)
	if err != nil {
		return "error: " + err.Error(), nil
	}
	return renderRows(res), &info
}

// TestPlanShapeDifferential: a statement served by a plan another text of
// its shape planned answers byte-identically to a fresh plan of its own
// text, at Parallelism 1 and 4, over engineCorpus and generated statements
// whose comparison literals differ. The cached plan, its Params bound to
// the statement's values, explains as the fresh plan does, and the
// materialization cache holds the answer under the fresh statement's text.
func TestPlanShapeDifferential(t *testing.T) {
	dbs := map[int]*DB{1: openLifeSciOpts(t, 1, 0), 4: openLifeSciOpts(t, 4, 3)}
	mat := openLifeSciWith(t, func(o *Options) { o.DisableMatCache = false })
	g := newShapeGen(t, dbs[1], 1)
	var pairs [][2]string
	for _, src := range engineCorpus {
		pairs = append(pairs, [2]string{src, src})
	}
	for i := 0; i < 150; i++ {
		a, b := g.statement()
		pairs = append(pairs, [2]string{a, b})
	}
	key := func(db *DB, src string) (string, []model.Value) {
		k, args, err := planKey(nil, nil, db.store.SchemaVersion(), db.base+db.onto.Version(), src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		return string(k), args
	}
	shared, answered := 0, 0
	for _, p := range pairs {
		k0, _ := key(dbs[1], p[0])
		if k1, _ := key(dbs[1], p[1]); k0 != k1 {
			t.Fatalf("%q and %q have different shapes", p[0], p[1])
		}
		if p[0] != p[1] {
			shared++
		}
		for _, par := range []int{1, 4} {
			db := dbs[par]
			k1, args1 := key(db, p[1])
			db.plans = query.NewShapeCache[*planEntry](query.ShapeCacheSize)
			fresh0, _ := answer(db, p[0])
			db.plans = query.NewShapeCache[*planEntry](query.ShapeCacheSize)
			fresh1, _ := answer(db, p[1])
			if par == 1 && p[0] != p[1] && !strings.HasPrefix(fresh1, "error: ") && strings.Count(fresh1, "\n") > 1 {
				answered++
			}
			db.plans = query.NewShapeCache[*planEntry](query.ShapeCacheSize)
			answer(db, p[0]) // plans the shape from p[0]
			for _, src := range []struct{ text, fresh string }{{p[1], fresh1}, {p[0], fresh0}} {
				got, info := answer(db, src.text)
				if info != nil && !info.PlanCached {
					t.Errorf("par %d %q: not served by its shape's plan", par, src.text)
				}
				if got != src.fresh {
					t.Errorf("par %d %q: the shape's plan answers\n%s\na fresh plan\n%s", par, src.text, got, src.fresh)
				}
			}
			ent, _ := db.plans.Get([]byte(k1))
			if ent == nil {
				if !strings.HasPrefix(fresh1, "error: ") {
					t.Errorf("par %d %q: no cached plan", par, p[1])
				}
				continue
			}
			ex, err := explain(db, p[1])
			if err != nil {
				t.Fatalf("EXPLAIN %q: %v", p[1], err)
			}
			if got := query.Explain(bindPlan(ent.plan, args1)); got != ex.Plan {
				t.Errorf("par %d %q: the shape's plan, bound, explains\n%s\na fresh plan\n%s", par, p[1], got, ex.Plan)
			}
		}
		stmt, err := query.Parse(p[1])
		if err != nil {
			continue
		}
		mat.plans = query.NewShapeCache[*planEntry](query.ShapeCacheSize)
		mat.matCache = curate.NewMatCache(0, curate.PolicyRanked)
		first, _ := answer(mat, p[0])
		want, info := answer(mat, p[1])
		if strings.HasPrefix(first, "error: ") || strings.HasPrefix(want, "error: ") {
			continue
		}
		if !info.PlanCached {
			t.Errorf("%q: not served by its shape's plan", p[1])
		}
		v, ok := mat.matCache.Get(stmt.String(), mat.answerVersion())
		if !ok {
			t.Errorf("%q: the result cache holds no answer under %q", p[1], stmt.String())
		} else if got := renderRows(v.(*query.Result)); got != want {
			t.Errorf("%q: the result cache holds\n%s\nwant\n%s", p[1], got, want)
		}
	}
	// A pair that answers no rows, or an error, compares little.
	if shared < 100 || answered < shared/2 {
		t.Errorf("%d generated pairs differ in their literals, %d of them answer rows", shared, answered)
	}
	t.Logf("%d generated pairs differ in their literals, %d of them answer rows", shared, answered)
}

// FuzzShapeKey: a statement's shape parses, with its Params bound to the
// values AppendShape lifted, to the statement Parse reads: it renders the
// same String(), and fails with the same error. Two texts with one shape
// parse to one statement: the shape of either, bound to the other's values,
// renders the other's String().
func FuzzShapeKey(f *testing.F) {
	for _, src := range engineCorpus {
		respelled := strings.NewReplacer("SELECT", "select", "FROM", "from", "WHERE", "where", "ORDER BY", "order  by", " ", "  ").Replace(src)
		f.Add(src, respelled)
	}
	g := &shapeGen{r: rand.New(rand.NewSource(2)), words: map[string][]string{
		"drugbank._key": {"DB00316"}, "drugbank.name": {"Warfarin", "O'Hara"}, "uniprot.symbol": {"TP53"},
	}}
	for i := 0; i < 40; i++ {
		a, b := g.statement()
		f.Add(a, b)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		type shaped struct {
			key  string
			args []model.Value
			stmt *query.SelectStmt
		}
		shape := func(src string) *shaped {
			key, args, err := query.AppendShape(nil, nil, src)
			stmt, perr := query.Parse(src)
			if err != nil {
				if perr == nil || perr.Error() != err.Error() {
					t.Fatalf("%q: AppendShape fails with %v, Parse with %v", src, err, perr)
				}
				return nil
			}
			lifted, serr := query.ParseShape(src)
			if (perr == nil) != (serr == nil) || perr != nil && perr.Error() != serr.Error() {
				t.Fatalf("%q: Parse fails with %v, ParseShape with %v", src, perr, serr)
			}
			if perr != nil {
				return nil
			}
			if got, want := lifted.StringWith(args), stmt.String(); got != want {
				t.Fatalf("%q: the shape bound to its values renders\n%s\nParse's statement\n%s", src, got, want)
			}
			if got, want := lifted.String(), stmt.String(); got != want {
				t.Fatalf("%q: the shape unbound renders\n%s\nParse's statement\n%s", src, got, want)
			}
			return &shaped{string(key), args, lifted}
		}
		sa, sb := shape(a), shape(b)
		if sa == nil || sb == nil || sa.key != sb.key {
			return
		}
		if got, want := sa.stmt.StringWith(sb.args), sb.stmt.StringWith(sb.args); got != want {
			t.Fatalf("%q and %q share a shape, but bound to the second's values the first renders\n%s\nthe second\n%s", a, b, got, want)
		}
	})
}
