package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"scdb/internal/datagen"
	"scdb/internal/graph"
	"scdb/internal/model"
	"scdb/internal/reason"
)

// TestTraversalOracle holds REACHES and LINKED to a textbook closure over
// the edge list and the sub-role hierarchy. The random graphs span 5 to 80
// entities, both sides of any size threshold, and hold self edges,
// parallel edges, literal-valued edges and merged entities. Each RBox has
// a sub-role diamond, random chains and roles no edge carries. Every
// predicate is asked at k 0 to 3, named and not, with and without WITH
// SEMANTICS.
func TestTraversalOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{5, 9, 17, 31, 32, 33, 50, 80} {
		g := newOracleGraph(t, r, n)
		for _, pred := range g.preds {
			for _, semantic := range []bool{false, true} {
				g.check(t, "LINKED", pred, 1, semantic)
				for k := 0; k <= 3; k++ {
					g.check(t, "REACHES", pred, k, semantic)
				}
			}
		}
	}
}

// oracleGraph is one random graph loaded into an engine, beside the edge
// list, merges and RBox the closure is computed from.
type oracleGraph struct {
	db    *DB
	n     int
	ids   []model.EntityID // entity i's ID as it was added
	alias map[model.EntityID]model.EntityID
	edges [][3]int // from, role index, to: entity-valued edges only
	roles []string
	sub   [][]bool // sub[i][j]: roles[i] ⊑* roles[j], reflexive
	preds []string // the predicates asked: none, every role and an unknown one
}

func newOracleGraph(t *testing.T, r *rand.Rand, n int) *oracleGraph {
	t.Helper()
	g := &oracleGraph{n: n, alias: map[model.EntityID]model.EntityID{}}
	// r0..r5 form an RBox: the diamond r0 ⊑ r1 ⊑ r3, r0 ⊑ r2 ⊑ r3, then
	// random upward pairs. r4 and r5 never label an edge; plain is in no axiom.
	g.roles = []string{"r0", "r1", "r2", "r3", "r4", "r5", "plain"}
	pairs := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if r.Intn(4) == 0 {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	axioms := []string{"concept N"}
	g.sub = make([][]bool, len(g.roles))
	for i := range g.sub {
		g.sub[i] = make([]bool, len(g.roles))
		g.sub[i][i] = true
	}
	for _, p := range pairs {
		axioms = append(axioms, fmt.Sprintf("subrole %s %s", g.roles[p[0]], g.roles[p[1]]))
		g.sub[p[0]][p[1]] = true
	}
	for m := range g.roles { // Floyd–Warshall over the sub-role relation
		for i := range g.roles {
			for j := range g.roles {
				g.sub[i][j] = g.sub[i][j] || g.sub[i][m] && g.sub[m][j]
			}
		}
	}
	g.preds = append([]string{""}, g.roles...)
	g.preds = append(g.preds, "none")

	db, err := Open(Options{Axioms: strings.Join(axioms, "\n"), DisableMatCache: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	g.db = db
	for i := 0; i < n; i++ {
		g.ids = append(g.ids, db.graph.AddEntity(&model.Entity{
			Key: fmt.Sprintf("k%03d", i), Source: fmt.Sprintf("s%d", i%2), Types: []string{"N"},
			Attrs: model.Record{"name": model.String(fmt.Sprintf("node%03d", i))},
		}))
	}
	edgeRoles := []int{0, 1, 2, 3, 6}
	addEdge := func(from, role, to int, source string) {
		if err := db.graph.AddEdge(graph.Edge{From: g.ids[from], Predicate: g.roles[role], To: model.Ref(g.ids[to]), Source: source}); err != nil {
			t.Fatal(err)
		}
		g.edges = append(g.edges, [3]int{from, role, to})
	}
	randomEdges := func(m int) {
		for e := 0; e < m; e++ {
			from, to, role := r.Intn(n), r.Intn(n), edgeRoles[r.Intn(len(edgeRoles))]
			if r.Intn(8) == 0 {
				to = from // a self edge
			}
			addEdge(from, role, to, "s")
			if r.Intn(5) == 0 { // a parallel edge: another role, or another source
				addEdge(from, edgeRoles[r.Intn(len(edgeRoles))], to, "s")
				addEdge(from, role, to, "t")
			}
			if r.Intn(6) == 0 { // a literal-valued edge, which no walk follows
				if err := db.graph.AddEdge(graph.Edge{From: g.ids[from], Predicate: g.roles[role], To: model.String("lit"), Source: "s"}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	randomEdges(3 * n / 2)
	for m := 0; m < 1+n/8; m++ { // merges, then edges that name the merged-away IDs
		keep, dup := g.ids[r.Intn(n)], g.ids[r.Intn(n)]
		if err := db.graph.Merge(keep, dup); err != nil {
			t.Fatal(err)
		}
		if k, d := g.canon(keep), g.canon(dup); k != d {
			g.alias[d] = k
		}
	}
	randomEdges(n / 2)
	return g
}

// canon follows the test's own record of the merges.
func (g *oracleGraph) canon(id model.EntityID) model.EntityID {
	for {
		next, ok := g.alias[id]
		if !ok {
			return id
		}
		id = next
	}
}

// admits is the textbook reading of a traversal predicate: none follows
// every edge, a named one its own edges, and under semantics its
// sub-roles' too.
func (g *oracleGraph) admits(pred string, semantic bool, role int) bool {
	if pred == "" || g.roles[role] == pred {
		return true
	}
	p := slices.Index(g.roles, pred)
	return semantic && p >= 0 && g.sub[role][p]
}

// want answers a statement from the closure: the sorted key pairs (a, b)
// with b within k admitted hops of a, or a itself for REACHES.
func (g *oracleGraph) want(fn, pred string, k int, semantic bool) []string {
	keys := map[model.EntityID]string{}
	var canon []model.EntityID
	for i, id := range g.ids {
		if g.canon(id) == id {
			keys[id] = fmt.Sprintf("k%03d", i)
			canon = append(canon, id)
		}
	}
	step := map[model.EntityID][]model.EntityID{} // the admitted edges by their start
	for _, e := range g.edges {
		if g.admits(pred, semantic, e[1]) {
			from := g.canon(g.ids[e[0]])
			step[from] = append(step[from], g.canon(g.ids[e[2]]))
		}
	}
	// reach holds the pairs joined by a path of 1..hops admitted edges:
	// a path of one more hop is an edge, or a path and then an edge.
	reach := map[[2]model.EntityID]bool{}
	for hops := 1; hops <= k; hops++ {
		next := map[[2]model.EntityID]bool{}
		for from, tos := range step {
			for _, to := range tos {
				next[[2]model.EntityID{from, to}] = true
			}
		}
		for p := range reach {
			for _, to := range step[p[1]] {
				next[[2]model.EntityID{p[0], to}] = true
			}
		}
		reach = next
	}
	var rows []string
	for _, a := range canon {
		for _, b := range canon {
			if reach[[2]model.EntityID{a, b}] || fn == "REACHES" && a == b {
				rows = append(rows, keys[a]+"|"+keys[b])
			}
		}
	}
	slices.Sort(rows)
	return rows
}

// check runs one statement over every pair of entities and compares its
// answer with the closure's.
func (g *oracleGraph) check(t *testing.T, fn, pred string, k int, semantic bool) {
	t.Helper()
	args := "a._id, b._id"
	if fn == "REACHES" {
		args = fmt.Sprintf("a._id, b.name, %d", k)
	}
	if pred != "" {
		args += ", '" + pred + "'"
	}
	q := fmt.Sprintf("SELECT a._key, b._key FROM N AS a JOIN N AS b ON %s(%s) ORDER BY a._key, b._key", fn, args)
	if semantic {
		q += " WITH SEMANTICS"
	}
	res, _, err := g.db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var got []string
	for _, row := range res.Rows {
		a, _ := row[0].AsString()
		b, _ := row[1].AsString()
		got = append(got, a+"|"+b)
	}
	if want := g.want(fn, pred, k, semantic); !slices.Equal(got, want) {
		t.Fatalf("%d entities, %q:\n got %v\nwant %v", g.n, q, got, want)
	}
}

// TestSubRoleMeansWhatTheReasonerSays: on the Figure-2 corpus the reasoner
// discharges a drug's Drug ⊑ ∃hasTarget.Gene witness through targets ⊑
// hasTarget. Under WITH SEMANTICS, LINKED over 'hasTarget' pairs exactly
// the drugs left without that witness with a gene; without it, the named
// role is only itself, and no edge carries it.
func TestSubRoleMeansWhatTheReasonerSays(t *testing.T) {
	db := openLifeSci(t)
	linked := func(q string) []string {
		t.Helper()
		res, _, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, row := range res.Rows {
			k, _ := row[0].AsString()
			keys = append(keys, k)
		}
		return keys
	}
	const q = `SELECT DISTINCT d._key FROM Drug AS d JOIN Gene AS g ON LINKED(d._id, g._id, 'hasTarget') ORDER BY d._key`
	var want []string
	drugs := db.reasoner.Instances("Drug")
	for _, id := range drugs {
		if !slices.ContainsFunc(db.reasoner.Witnesses(id), func(w reason.Witness) bool { return w.Role == "hasTarget" }) {
			e, _ := db.graph.Entity(id)
			want = append(want, e.Key)
		}
	}
	slices.Sort(want)
	if got := linked(q + " WITH SEMANTICS"); !slices.Equal(got, want) || len(want) != 4 || len(drugs) != 5 {
		t.Errorf("LINKED over hasTarget pairs %v with a gene; the reasoner discharges %v of %d drugs", got, want, len(drugs))
	}
	if got := linked(q); len(got) != 0 {
		t.Errorf("without WITH SEMANTICS no asserted hasTarget edge exists, yet LINKED pairs %v", got)
	}
}

// BenchmarkTraversalStatements prices REACHES and LINKED as statements on
// E-OS2's LifeSci graph: a LINKED join evaluates the predicate once per
// drug-gene pair on the morsel workers, and REACHES once per drug. The
// after-edge case adds an edge before each point LINKED, so it pays the
// snapshot rebuild a new graph version costs.
func BenchmarkTraversalStatements(b *testing.B) {
	opts := lifesciOptions("")
	opts.DisableMatCache = true
	db, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for _, ds := range datagen.LifeSci(9, 400, 250, 120) {
		if err := db.Ingest(ds); err != nil {
			b.Fatal(err)
		}
	}
	run := func(b *testing.B, q string) {
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, c := range []struct{ name, q string }{
		{"linked-join", "SELECT COUNT(*) FROM Drug AS d JOIN Gene AS g ON LINKED(d._id, g._id, 'targets')"},
		{"linked-join-unnamed", "SELECT COUNT(*) FROM Drug AS d JOIN Gene AS g ON LINKED(d._id, g._id)"},
		{"linked-join-semantic", "SELECT COUNT(*) FROM Drug AS d JOIN Gene AS g ON LINKED(d._id, g._id, 'hasTarget') WITH SEMANTICS"},
		{"reaches-named", "SELECT COUNT(*) FROM Drug AS d WHERE REACHES(d._id, 'TP53', 3, 'targets')"},
		{"reaches-unnamed", "SELECT COUNT(*) FROM Drug AS d WHERE REACHES(d._id, 'Osteosarcoma', 3)"},
	} {
		b.Run(c.name, func(b *testing.B) { b.ReportAllocs(); run(b, c.q) })
	}
	b.Run("linked-point-after-edge", func(b *testing.B) {
		b.ReportAllocs()
		from, _ := db.graph.FindByKey("drugbank", "DB00563")
		for i := 0; i < b.N; i++ {
			if err := db.graph.AddEdge(graph.Edge{From: from.ID, Predicate: "note", To: model.Int(int64(i)), Source: "bench"}); err != nil {
				b.Fatal(err)
			}
			if _, _, err := db.Query("SELECT g._key FROM Drug AS d JOIN Gene AS g ON LINKED(d._id, g._id, 'targets') WHERE d._key = 'DB00563'"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
