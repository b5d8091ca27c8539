package graph

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"scdb/internal/model"
)

func ent(source, key string, types ...string) *model.Entity {
	return &model.Entity{Key: key, Source: source, Types: types, Attrs: model.Record{}, Confidence: 1}
}

func TestAddEntityAssignsIDs(t *testing.T) {
	g := New()
	a := g.AddEntity(ent("s", "a"))
	b := g.AddEntity(ent("s", "b"))
	if a == b || a == model.NoEntity || b == model.NoEntity {
		t.Fatalf("ids %d %d", a, b)
	}
	e, ok := g.Entity(a)
	if !ok || e.Key != "a" {
		t.Fatal("Entity lookup failed")
	}
	if g.NumEntities() != 2 {
		t.Errorf("NumEntities = %d", g.NumEntities())
	}
}

func TestAddEntityIdempotentByKey(t *testing.T) {
	g := New()
	e1 := ent("drugbank", "DB01", "Drug")
	e1.Attrs["name"] = model.String("Warfarin")
	a := g.AddEntity(e1)

	e2 := ent("drugbank", "DB01", "Chemical")
	e2.Attrs["formula"] = model.String("C19H16O4")
	b := g.AddEntity(e2)
	if a != b {
		t.Fatal("same (source,key) must return same id")
	}
	got, _ := g.Entity(a)
	if !got.HasType("Drug") || !got.HasType("Chemical") {
		t.Error("types must union on re-ingestion")
	}
	if !model.Equal(got.Attrs["name"], model.String("Warfarin")) ||
		!model.Equal(got.Attrs["formula"], model.String("C19H16O4")) {
		t.Error("attrs must merge on re-ingestion")
	}
	// Same key in a different source is a different entity.
	c := g.AddEntity(ent("ctd", "DB01"))
	if c == a {
		t.Error("keys are source-scoped")
	}
}

func TestFindByKey(t *testing.T) {
	g := New()
	id := g.AddEntity(ent("uniprot", "P04637", "Gene"))
	e, ok := g.FindByKey("uniprot", "P04637")
	if !ok || e.ID != id {
		t.Fatal("FindByKey failed")
	}
	if _, ok := g.FindByKey("uniprot", "missing"); ok {
		t.Error("missing key must not resolve")
	}
}

func TestAddEdgeAndNeighbors(t *testing.T) {
	g := New()
	drug := g.AddEntity(ent("s", "warfarin", "Drug"))
	gene := g.AddEntity(ent("s", "tp53", "Gene"))
	if err := g.AddEdge(Edge{From: drug, Predicate: "targets", To: model.Ref(gene), Source: "s", Confidence: 1}); err != nil {
		t.Fatal(err)
	}
	// Literal-valued edge.
	if err := g.AddEdge(Edge{From: drug, Predicate: "dosage_mg", To: model.Float(5.1), Source: "s", Confidence: 1}); err != nil {
		t.Fatal(err)
	}
	// Duplicate ignored.
	g.AddEdge(Edge{From: drug, Predicate: "targets", To: model.Ref(gene), Source: "s", Confidence: 1})
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 (dup ignored)", g.NumEdges())
	}
	nb := g.Neighbors(drug, "targets")
	if len(nb) != 1 || nb[0] != gene {
		t.Errorf("Neighbors = %v", nb)
	}
	if len(g.Neighbors(drug, "")) != 1 {
		t.Error("untyped Neighbors must skip literal edges")
	}
	if len(g.EdgesByPredicate(drug, "dosage_mg")) != 1 {
		t.Error("EdgesByPredicate failed")
	}
	in := g.Incoming(gene)
	if len(in) != 1 || in[0] != drug {
		t.Errorf("Incoming = %v", in)
	}
	if err := g.AddEdge(Edge{From: 999, Predicate: "x", To: model.Ref(gene)}); err == nil {
		t.Error("edge from unknown entity must fail")
	}
	if err := g.AddEdge(Edge{From: drug, Predicate: "x", To: model.Ref(999)}); err == nil {
		t.Error("edge to unknown entity must fail")
	}
}

func TestMerge(t *testing.T) {
	g := New()
	a := g.AddEntity(ent("drugbank", "warfarin", "Drug"))
	b := g.AddEntity(ent("ctd", "WARFARIN"))
	gene := g.AddEntity(ent("s", "tp53", "Gene"))
	disease := g.AddEntity(ent("s", "embolism", "Disease"))
	g.AddEdge(Edge{From: b, Predicate: "treats", To: model.Ref(disease), Source: "ctd"})
	g.AddEdge(Edge{From: gene, Predicate: "affects", To: model.Ref(b), Source: "ctd"})

	if err := g.Merge(a, b); err != nil {
		t.Fatal(err)
	}
	if g.NumEntities() != 3 {
		t.Errorf("NumEntities after merge = %d", g.NumEntities())
	}
	// b resolves to a.
	if g.Resolve(b) != a {
		t.Error("alias resolution failed")
	}
	e, ok := g.Entity(b)
	if !ok || e.ID != a {
		t.Error("Entity through alias failed")
	}
	// b's outgoing edge now belongs to a.
	nb := g.Neighbors(a, "treats")
	if len(nb) != 1 || nb[0] != disease {
		t.Errorf("merged outgoing edge lost: %v", nb)
	}
	// gene's edge now points to a.
	nb = g.Neighbors(gene, "affects")
	if len(nb) != 1 || g.Resolve(nb[0]) != a {
		t.Errorf("incoming edge not redirected: %v", nb)
	}
	// Merging again is a no-op.
	if err := g.Merge(a, b); err != nil {
		t.Errorf("re-merge: %v", err)
	}
	if err := g.Merge(a, 999); err == nil {
		t.Error("merge of unknown entity must fail")
	}
}

// TestBorrowedAttrsNeverWritten: a new entity keeps the caller's attribute
// map rather than a copy, so every fill — a re-delivery of its key and a
// merge into it — must build a new map and leave the caller's as it was.
func TestBorrowedAttrsNeverWritten(t *testing.T) {
	enc := func(r model.Record) string { return string(model.AppendRecord(nil, r)) }
	g := New()
	first := model.Record{"name": model.String("Warfarin"), "formula": model.Null()}
	firstWas := enc(first)
	a := g.AddEntity(&model.Entity{Key: "DB01", Source: "drugbank", Attrs: first, Confidence: 1})
	if e, _ := g.Entity(a); reflect.ValueOf(e.Attrs).UnsafePointer() != reflect.ValueOf(first).UnsafePointer() {
		t.Fatal("AddEntity copied the attribute map instead of borrowing it")
	}

	// Re-delivery fills the null formula and adds the mass.
	again := model.Record{"formula": model.String("C19H16O4"), "mass": model.Float(308.3)}
	againWas := enc(again)
	if id := g.AddEntity(&model.Entity{Key: "DB01", Source: "drugbank", Attrs: again}); id != a {
		t.Fatalf("re-delivery got id %d, want %d", id, a)
	}
	if enc(first) != firstWas || enc(again) != againWas {
		t.Fatalf("re-delivery wrote to a caller's map: first %v, again %v", first, again)
	}
	e, _ := g.Entity(a)
	want := model.Record{"name": model.String("Warfarin"), "formula": model.String("C19H16O4"), "mass": model.Float(308.3)}
	if enc(e.Attrs) != enc(want) {
		t.Fatalf("merged attributes %v, want %v", e.Attrs, want)
	}

	// A merge fills the kept entity's map from the duplicate's.
	keepAttrs := model.Record{"symbol": model.String("TP53")}
	dupAttrs := model.Record{"symbol": model.String("tp53"), "chromosome": model.Int(17)}
	keepWas, dupWas := enc(keepAttrs), enc(dupAttrs)
	k := g.AddEntity(&model.Entity{Key: "P04637", Source: "uniprot", Attrs: keepAttrs})
	d := g.AddEntity(&model.Entity{Key: "TP53", Source: "hgnc", Attrs: dupAttrs})
	if err := g.Merge(k, d); err != nil {
		t.Fatal(err)
	}
	if enc(keepAttrs) != keepWas || enc(dupAttrs) != dupWas {
		t.Fatalf("merge wrote to a caller's map: keep %v, dup %v", keepAttrs, dupAttrs)
	}
	e, _ = g.Entity(k)
	if want := (model.Record{"symbol": model.String("TP53"), "chromosome": model.Int(17)}); enc(e.Attrs) != enc(want) {
		t.Fatalf("merged attributes %v, want %v", e.Attrs, want)
	}

	// A map the graph made and handed out is not written either: a reader
	// holding it keeps what it read, and the next fill replaces it.
	held := e.Attrs
	heldWas := enc(held)
	g.AddEntity(&model.Entity{Key: "P04637", Source: "uniprot", Attrs: model.Record{"length": model.Int(393)}})
	if enc(held) != heldWas {
		t.Fatalf("a fill wrote to a map a reader holds: %v", held)
	}
	if e, _ = g.Entity(k); e.Attrs.Get("length").IsNull() || e.Attrs.Get("chromosome").IsNull() {
		t.Fatalf("a fill lost a value: %v", e.Attrs)
	}

	// An entity that arrives without attributes gets them on its first fill.
	n := g.AddEntity(&model.Entity{Key: "bare", Source: "s"})
	g.AddEntity(&model.Entity{Key: "bare", Source: "s", Attrs: model.Record{"name": model.String("x")}})
	if e, _ = g.Entity(n); enc(e.Attrs) != enc(model.Record{"name": model.String("x")}) {
		t.Fatalf("fill of an entity without attributes: %v", e.Attrs)
	}
}

// TestMergeLeavesRowColumns: an entity's attributes are its stored row, so
// _key and _types are the row's own. A merge in which only the duplicate
// carries _types, and a re-delivery that brings types the first delivery
// lacked, fill the visible attributes and neither of those.
func TestMergeLeavesRowColumns(t *testing.T) {
	enc := func(r model.Record) string { return string(model.AppendRecord(nil, r)) }
	g := New()
	k := g.AddEntity(&model.Entity{Key: "P04637", Source: "uniprot", Attrs: model.Record{
		model.KeyAttr: model.String("P04637"), "symbol": model.String("TP53"), "note": model.Null()}})
	d := g.AddEntity(&model.Entity{Key: "TP53", Source: "hgnc", Types: []string{"Gene"}, Attrs: model.Record{
		model.KeyAttr: model.String("TP53"), model.TypesAttr: model.List(model.String("Gene")),
		"symbol": model.String("tp53"), "note": model.String("tumour suppressor")}})
	if err := g.Merge(k, d); err != nil {
		t.Fatal(err)
	}
	want := model.Record{model.KeyAttr: model.String("P04637"), "symbol": model.String("TP53"), "note": model.String("tumour suppressor")}
	if e, _ := g.Entity(k); enc(e.Attrs) != enc(want) || !e.HasType("Gene") {
		t.Fatalf("kept entity after the merge: %v %v, want %v [Gene]", e.Attrs, e.Types, want)
	}

	g.AddEntity(&model.Entity{Key: "P04637", Source: "uniprot", Types: []string{"Protein"}, Attrs: model.Record{
		model.KeyAttr: model.String("P04637"), model.TypesAttr: model.List(model.String("Protein")), "length": model.Int(393)}})
	want["length"] = model.Int(393)
	if e, _ := g.Entity(k); enc(e.Attrs) != enc(want) || !e.HasType("Protein") {
		t.Fatalf("kept entity after a re-delivery: %v %v, want %v [Gene Protein]", e.Attrs, e.Types, want)
	}
}

func TestMergeChainResolution(t *testing.T) {
	g := New()
	a := g.AddEntity(ent("s", "a"))
	b := g.AddEntity(ent("s", "b"))
	c := g.AddEntity(ent("s", "c"))
	g.Merge(b, c) // c → b
	g.Merge(a, b) // b → a, so c → a transitively
	if g.Resolve(c) != a {
		t.Errorf("chained alias: Resolve(c) = %d, want %d", g.Resolve(c), a)
	}
	// Adding an edge referencing a merged entity resolves endpoints.
	d := g.AddEntity(ent("s", "d"))
	g.AddEdge(Edge{From: d, Predicate: "p", To: model.Ref(c), Source: "s"})
	nb := g.Neighbors(d, "p")
	if len(nb) != 1 || nb[0] != a {
		t.Errorf("edge endpoint not resolved: %v", nb)
	}
}

func TestEntitiesByTypeAndIteration(t *testing.T) {
	g := New()
	g.AddEntity(ent("s", "a", "Drug"))
	g.AddEntity(ent("s", "b", "Gene"))
	g.AddEntity(ent("s", "c", "Drug"))
	drugs := g.EntitiesByType("Drug")
	if len(drugs) != 2 {
		t.Errorf("EntitiesByType = %v", drugs)
	}
	n := 0
	g.ForEachEntity(func(*model.Entity) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("ForEachEntity early stop visited %d", n)
	}
	edges := 0
	g.ForEachEdge(func(Edge) bool { edges++; return true })
	if edges != 0 {
		t.Errorf("ForEachEdge on edgeless graph = %d", edges)
	}
}

func TestVersionBumps(t *testing.T) {
	g := New()
	v0 := g.Version()
	a := g.AddEntity(ent("s", "a"))
	if g.Version() == v0 {
		t.Error("AddEntity must bump version")
	}
	v1 := g.Version()
	b := g.AddEntity(ent("s", "b"))
	g.AddEdge(Edge{From: a, Predicate: "p", To: model.Ref(b), Source: "s"})
	if g.Version() <= v1 {
		t.Error("AddEdge must bump version")
	}
	v2 := g.Version()
	g.Merge(a, b)
	if g.Version() <= v2 {
		t.Error("Merge must bump version")
	}
}

// chain builds a linear chain of n entities connected by pred.
func chain(g *Graph, n int, pred string) []model.EntityID {
	ids := make([]model.EntityID, n)
	for i := range ids {
		ids[i] = g.AddEntity(&model.Entity{Key: string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260)), Source: "chain", Attrs: model.Record{}})
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(Edge{From: ids[i], Predicate: pred, To: model.Ref(ids[i+1]), Source: "chain"})
	}
	return ids
}

// only admits the one predicate.
func only(c *CSR, pred string) Mask {
	return c.Mask(func(p string) bool { return p == pred })
}

func TestKHopAndReaches(t *testing.T) {
	g := New()
	ids := chain(g, 6, "next")
	reached, stats := g.KHop(ids[0], 3, "next")
	if len(reached) != 3 {
		t.Errorf("3-hop reached %d", len(reached))
	}
	if stats.Visited != 3 || stats.Lines == 0 {
		t.Errorf("stats = %+v", stats)
	}
	if r, _ := g.KHop(999, 2, ""); r != nil {
		t.Error("KHop from unknown start must return nil")
	}
	csr := g.BuildCSR(OrderBFS)
	next := only(csr, "next")
	if !csr.Reaches(ids[0], ids[3], 3, next) {
		t.Error("ids[3] must be reachable in 3 hops")
	}
	if csr.Reaches(ids[0], ids[4], 3, next) {
		t.Error("ids[4] must not be reachable in 3 hops")
	}
	if csr.Reaches(ids[0], ids[1], 1, only(csr, "other")) {
		t.Error("a mask that admits no edge reaches nothing")
	}
	// A start reaches itself only over a cycle: a self edge is one hop.
	if csr.Reaches(ids[0], ids[0], 5, nil) {
		t.Error("an acyclic start must not reach itself")
	}
	g.AddEdge(Edge{From: ids[2], Predicate: "self", To: model.Ref(ids[2]), Source: "chain"})
	g.AddEdge(Edge{From: ids[4], Predicate: "back", To: model.Ref(ids[3]), Source: "chain"})
	csr = g.BuildCSR(OrderBFS)
	if !csr.Reaches(ids[2], ids[2], 1, only(csr, "self")) || csr.Reaches(ids[2], ids[2], 1, only(csr, "next")) {
		t.Error("a self edge links an entity to itself over its own predicate only")
	}
	if csr.Reaches(ids[3], ids[3], 1, nil) || !csr.Reaches(ids[3], ids[3], 2, nil) {
		t.Error("the cycle ids[3] → ids[4] → ids[3] takes 2 hops")
	}
}

// TestPath: a shortest path's length is the least hop bound Reaches
// accepts.
func TestPath(t *testing.T) {
	g := New()
	ids := chain(g, 5, "next")
	csr := g.BuildCSR(OrderBFS)
	next := only(csr, "next")
	if !csr.Reaches(ids[0], ids[3], 3, next) || csr.Reaches(ids[0], ids[3], 2, next) {
		t.Error("the chain's path from ids[0] to ids[3] must take 3 hops")
	}
	if csr.Reaches(ids[3], ids[0], 4, next) {
		t.Error("no reverse path on a directed chain")
	}
	// Branching: the shortest path wins.
	a := g.AddEntity(ent("s", "a"))
	b := g.AddEntity(ent("s", "b"))
	c := g.AddEntity(ent("s", "c"))
	g.AddEdge(Edge{From: a, Predicate: "p", To: model.Ref(b), Source: "s"})
	g.AddEdge(Edge{From: b, Predicate: "p", To: model.Ref(c), Source: "s"})
	g.AddEdge(Edge{From: a, Predicate: "p", To: model.Ref(c), Source: "s"})
	csr = g.BuildCSR(OrderBFS)
	if !csr.Reaches(a, c, 1, only(csr, "p")) {
		t.Error("the direct edge is a one-hop path")
	}
}

func TestCSRMatchesMapTraversal(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g := New()
	const n = 200
	ids := make([]model.EntityID, n)
	for i := range ids {
		ids[i] = g.AddEntity(&model.Entity{Key: key3(i), Source: "rnd", Attrs: model.Record{}})
	}
	for i := 0; i < 800; i++ {
		from, to := ids[r.Intn(n)], ids[r.Intn(n)]
		pred := []string{"p", "q"}[r.Intn(2)]
		g.AddEdge(Edge{From: from, Predicate: pred, To: model.Ref(to), Source: "rnd"})
	}
	for _, order := range []Order{OrderInsertion, OrderBFS, OrderDegree} {
		csr := g.BuildCSR(order)
		if len(csr.ids) != n {
			t.Fatalf("%v: %d vertices", order, len(csr.ids))
		}
		if len(csr.targets) != g.NumEdges() {
			t.Fatalf("%v: edges %d != %d", order, len(csr.targets), g.NumEdges())
		}
		for trial := 0; trial < 20; trial++ {
			start := ids[r.Intn(n)]
			k := 1 + r.Intn(4)
			pred := []string{"", "p", "q"}[r.Intn(3)]
			var mask Mask
			if pred != "" {
				mask = only(csr, pred)
			}
			want, _ := g.KHop(start, k, pred)
			got, _ := csr.KHop(start, k, mask)
			if !sameIDSet(want, got) {
				t.Fatalf("%v: KHop(%d,%d,%q) mismatch: map=%d csr=%d", order, start, k, pred, len(want), len(got))
			}
		}
	}
}

func key3(i int) string {
	return string([]byte{byte('a' + i%26), byte('a' + (i/26)%26), byte('a' + (i/676)%26)})
}

func sameIDSet(a, b []model.EntityID) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[model.EntityID]bool, len(a))
	for _, id := range a {
		m[id] = true
	}
	for _, id := range b {
		if !m[id] {
			return false
		}
	}
	return true
}

func TestCSRPositionsAndMissingPred(t *testing.T) {
	g := New()
	ids := chain(g, 4, "next")
	csr := g.BuildCSR(OrderInsertion)
	for _, id := range ids {
		p := csr.Pos(id)
		if p < 0 || csr.ids[p] != id {
			t.Errorf("Pos roundtrip failed for %d", id)
		}
	}
	if csr.Pos(999) != -1 {
		t.Error("Pos of unknown id must be -1")
	}
	if r, _ := csr.KHop(ids[0], 2, only(csr, "no-such-pred")); r != nil {
		t.Error("unknown predicate must reach nothing")
	}
	if csr.Version() != g.Version() {
		t.Error("CSR must record build version")
	}
}

func TestBFSOrderImprovesChainLocality(t *testing.T) {
	// On a long chain, BFS order keeps successive neighbors adjacent in the
	// targets array, so a deep traversal touches fewer distinct lines than
	// a scrambled insertion order. Build the chain in shuffled insertion
	// order to make insertion-order layout poor.
	r := rand.New(rand.NewSource(7))
	g := New()
	const n = 2000
	perm := r.Perm(n)
	ids := make([]model.EntityID, n)
	for _, i := range perm {
		ids[i] = g.AddEntity(&model.Entity{Key: key3(i) + key3(i/100), Source: "chain", Attrs: model.Record{}})
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(Edge{From: ids[i], Predicate: "next", To: model.Ref(ids[i+1]), Source: "chain"})
	}
	ins := g.BuildCSR(OrderInsertion)
	bfs := g.BuildCSR(OrderBFS)
	_, insStats := ins.KHop(ids[0], n, only(ins, "next"))
	_, bfsStats := bfs.KHop(ids[0], n, only(bfs, "next"))
	if insStats.Visited != n-1 || bfsStats.Visited != n-1 {
		t.Fatalf("traversals incomplete: %+v %+v", insStats, bfsStats)
	}
	if bfsStats.Lines >= insStats.Lines {
		t.Errorf("BFS order should touch fewer lines: bfs=%d insertion=%d", bfsStats.Lines, insStats.Lines)
	}
}

func TestSourcesAndSourceEntities(t *testing.T) {
	g := New()
	a := g.AddEntity(ent("alpha", "k1", "T"))
	b := g.AddEntity(ent("beta", "k2", "T"))
	g.AddEdge(Edge{From: a, Predicate: "p", To: model.Ref(b), Source: "gamma"})

	srcs := g.Sources()
	if strings.Join(srcs, ",") != "alpha,beta,gamma" {
		t.Errorf("Sources = %v", srcs)
	}
	// Merge beta's entity into alpha's: beta still attributes its record.
	g.Merge(a, b)
	se := g.SourceEntities("beta")
	if len(se) != 1 || se[0] != a {
		t.Errorf("SourceEntities after merge = %v, want canonical %d", se, a)
	}
	if got := g.SourceEntities("nope"); len(got) != 0 {
		t.Errorf("unknown source entities = %v", got)
	}
	// Two keys of one source merging into one canonical entity still count
	// twice (record-level attribution).
	c := g.AddEntity(ent("alpha", "k3", "T"))
	g.Merge(a, c)
	if got := g.SourceEntities("alpha"); len(got) != 2 {
		t.Errorf("alpha records = %v, want 2", got)
	}
}

func TestEdgeTripleAndOrderString(t *testing.T) {
	g := New()
	a := g.AddEntity(ent("s", "a"))
	b := g.AddEntity(ent("s", "b"))
	e := Edge{From: a, Predicate: "p", To: model.Ref(b), Source: "s", Confidence: 0.5}
	tr := e.Triple()
	if to, _ := tr.Object.AsRef(); tr.Subject != a || tr.Predicate != "p" || to != b || tr.Confidence != 0.5 {
		t.Errorf("Triple = %+v", tr)
	}
	for o, want := range map[Order]string{
		OrderInsertion: "insertion", OrderBFS: "bfs", OrderDegree: "degree", Order(9): "order(9)",
	} {
		if o.String() != want {
			t.Errorf("Order(%d).String() = %q", o, o.String())
		}
	}
}

func TestForEachEdgeEarlyStop(t *testing.T) {
	g := New()
	ids := chain(g, 4, "next")
	_ = ids
	n := 0
	g.ForEachEdge(func(Edge) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d edges", n)
	}
	n = 0
	g.ForEachEdge(func(Edge) bool { n++; return true })
	if n != 3 {
		t.Errorf("full iteration visited %d edges", n)
	}
}

func TestPropertyMergePreservesReachability(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New()
		const n = 30
		ids := make([]model.EntityID, n)
		for i := range ids {
			ids[i] = g.AddEntity(&model.Entity{Key: key3(i) + "x", Source: "p", Attrs: model.Record{}})
		}
		for i := 0; i < 60; i++ {
			g.AddEdge(Edge{From: ids[r.Intn(n)], Predicate: "p", To: model.Ref(ids[r.Intn(n)]), Source: "p"})
		}
		a, b := ids[r.Intn(n)], ids[r.Intn(n)]
		// Anything b could reach must be reachable from a after merging b
		// into a (merge unions the out-edges).
		before, _ := g.KHop(b, 3, "p")
		if err := g.Merge(a, b); err != nil {
			return false
		}
		after, _ := g.KHop(a, 3, "p")
		reachable := make(map[model.EntityID]bool, len(after))
		for _, id := range after {
			reachable[id] = true
		}
		reachable[g.Resolve(a)] = true
		for _, id := range before {
			if !reachable[g.Resolve(id)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
