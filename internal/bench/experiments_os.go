package bench

import (
	"fmt"
	"math/rand"

	"scdb/internal/cluster"
	"scdb/internal/core"
	"scdb/internal/curate"
	"scdb/internal/datagen"
	"scdb/internal/graph"
	"scdb/internal/model"
	"scdb/internal/placement"
	"scdb/internal/storage"
)

func init() {
	register("E-OS1", "Dynamic instance-level clustering", RunClusterLocality)
	register("E-OS2", "Locality-aware multi-hop traversal", RunTraversalLocality)
	register("E-OS3", "Semantic query optimization", RunSemanticOpt)
	register("E-OS4", "DSM placement with affinity", RunPlacement)
}

// RunClusterLocality measures OS.1: page touches and compression ratio of
// the dynamically clustered layout vs the static insertion-order layout.
func RunClusterLocality() *Table {
	t := &Table{
		ID:     "E-OS1",
		Title:  "Dynamic instance clustering: locality and compression",
		Claim:  "clustering by instance relations improves retrieval locality and compression over a static layout",
		Header: []string{"layout", "workload page touches", "RLE bytes (category col)", "compression ratio"},
	}
	r := rand.New(rand.NewSource(13))
	const groups, per = 24, 8
	var ids []storage.RowID
	groupRows := make([][]storage.RowID, groups)
	catCol := map[storage.RowID]model.Value{}
	for i := 0; i < per; i++ {
		for g := 0; g < groups; g++ {
			id := storage.RowID(g + i*groups + 1) // interleaved storage order
			ids = append(ids, id)
			groupRows[g] = append(groupRows[g], id)
			catCol[id] = model.String(fmt.Sprintf("category-%02d", g))
		}
	}
	tr := cluster.NewTracker()
	var workload [][]storage.RowID
	for i := 0; i < 500; i++ {
		g := r.Intn(groups)
		workload = append(workload, groupRows[g])
		tr.Observe(groupRows[g])
	}
	static := cluster.NewLayout(ids)
	dynamic := cluster.LayoutFromClusters(tr.Cluster(10), ids)

	colFor := func(l cluster.Layout) []model.Value {
		out := make([]model.Value, len(ids))
		for _, id := range ids {
			out[l.Pos(id)] = catCol[id]
		}
		return out
	}
	plainSize := len(func() []byte {
		var b []byte
		for _, v := range colFor(static) {
			b = model.AppendValue(b, v)
		}
		return b
	}())
	for _, row := range []struct {
		name   string
		layout cluster.Layout
	}{{"static (insertion)", static}, {"dynamic (co-access clusters)", dynamic}} {
		cost := cluster.WorkloadCost(row.layout, workload, per)
		comp := cluster.Compress(colFor(row.layout))
		t.Rows = append(t.Rows, []string{
			row.name, d(cost), fmt.Sprintf("%d (%s)", comp.Size(), comp.Encoding),
			fmt.Sprintf("%.1fx", float64(plainSize)/float64(comp.Size())),
		})
	}
	t.Verdict = "dynamic clustering cuts page touches and lengthens runs (better compression)"
	return t
}

// RunTraversalLocality measures OS.2: k-hop traversal cost on the
// adjacency-map baseline vs CSR snapshots under three vertex orders.
func RunTraversalLocality() *Table {
	t := &Table{
		ID:     "E-OS2",
		Title:  "Multi-hop traversal: CSR layouts vs adjacency map",
		Claim:  "an immutable locality-optimized representation beats pointer-chasing for multi-hop traversal; layout order matters",
		Header: []string{"representation", "k", "visited", "line fetches"},
	}
	// A community-structured graph: locality exists to be exploited.
	// Entities are created round-robin ACROSS communities, so insertion
	// order interleaves them — the realistic arrival order of online
	// integration, and the worst case for the insertion-order layout.
	r := rand.New(rand.NewSource(23))
	g := graph.New()
	const comms, per = 40, 25
	ids := make([]model.EntityID, comms*per)
	for i := 0; i < per; i++ {
		for c := 0; c < comms; c++ {
			ids[c*per+i] = g.AddEntity(&model.Entity{
				Key: fmt.Sprintf("c%02d-%02d", c, i), Source: "bench", Attrs: model.Record{},
			})
		}
	}
	for i := 0; i < comms*per*4; i++ {
		c := r.Intn(comms)
		a := ids[c*per+r.Intn(per)]
		b := ids[c*per+r.Intn(per)]
		if r.Float64() < 0.05 { // sparse inter-community links
			b = ids[r.Intn(len(ids))]
		}
		if a != b {
			g.AddEdge(graph.Edge{From: a, Predicate: "p", To: model.Ref(b), Source: "bench"})
		}
	}
	start := ids[0]
	for _, k := range []int{2, 4} {
		_, mapStats := g.KHop(start, k, "")
		t.Rows = append(t.Rows, []string{"adjacency map", d(k), d(mapStats.Visited), d(mapStats.Lines)})
		for _, order := range []graph.Order{graph.OrderInsertion, graph.OrderBFS, graph.OrderDegree} {
			csr := g.BuildCSR(order)
			_, st := csr.KHop(start, k, nil)
			t.Rows = append(t.Rows, []string{"CSR/" + order.String(), d(k), d(st.Visited), d(st.Lines)})
		}
	}
	t.Verdict = "CSR fetches far fewer lines than the map; BFS order wins among layouts"
	return t
}

// RunSemanticOpt measures OS.3: plan cost and latency with semantic
// rewrites on vs off over a query suite containing redundant and
// unsatisfiable semantic predicates. Two engines over identical data are
// compared: one with the OS.3 rewrites, one with them disabled (the
// ablation); both run WITH SEMANTICS and without result caching, so the
// only difference is the optimizer.
func RunSemanticOpt() *Table {
	t := &Table{
		ID:     "E-OS3",
		Title:  "Semantic query optimization (rewrites on vs off)",
		Claim:  "class/subclass knowledge collapses redundant predicates and proves queries empty without touching data",
		Header: []string{"query", "rewrites", "est cost (on)", "est cost (off)", "latency on", "latency off"},
	}
	open := func(disable bool) (*core.DB, error) {
		db, err := core.Open(core.Options{
			Axioms: datagen.LifeSciAxioms,
			LinkRules: []curate.LinkRule{
				{Predicate: "targets_symbol", EdgePredicate: "targets", TargetAttrs: []string{"symbol", "gene_symbol"}, TargetType: "Gene"},
				{Predicate: "treats_name", EdgePredicate: "treats", TargetAttrs: []string{"disease_name"}},
			},
			DisableSemanticOpt: disable,
			DisableMatCache:    true,
		})
		if err != nil {
			return nil, err
		}
		for _, ds := range datagen.LifeSci(9, 400, 250, 120) {
			if err := db.Ingest(ds); err != nil {
				db.Close()
				return nil, err
			}
		}
		return db, nil
	}
	dbOn, err := open(false)
	if err != nil {
		t.Rows = append(t.Rows, []string{"open", err.Error(), "", "", "", ""})
		return t
	}
	defer dbOn.Close()
	dbOff, err := open(true)
	if err != nil {
		t.Rows = append(t.Rows, []string{"open", err.Error(), "", "", "", ""})
		return t
	}
	defer dbOff.Close()

	suite := []struct{ name, q string }{
		{"redundant superclass", `SELECT name FROM Drug AS d WHERE ISA(d._id, 'Chemical') WITH SEMANTICS`},
		{"unsatisfiable", `SELECT name FROM Drug AS d WHERE ISA(d._id, 'Osteosarcoma') WITH SEMANTICS`},
		{"collapsible pair", `SELECT name FROM drugbank AS b JOIN Drug AS d ON b._key = d._key WHERE ISA(d._id, 'Drug') AND ISA(d._id, 'Chemical') WITH SEMANTICS`},
	}
	for _, q := range suite {
		_, infoOn, err := dbOn.Query("EXPLAIN " + q.q)
		if err != nil {
			t.Rows = append(t.Rows, []string{q.name, err.Error(), "", "", "", ""})
			continue
		}
		_, infoOff, err := dbOff.Query("EXPLAIN " + q.q)
		if err != nil {
			t.Rows = append(t.Rows, []string{q.name, err.Error(), "", "", "", ""})
			continue
		}
		latOn := ms(timeBest(5, func() { dbOn.Query(q.q) }))
		latOff := ms(timeBest(5, func() { dbOff.Query(q.q) }))
		t.Rows = append(t.Rows, []string{
			q.name, d(len(infoOn.Rules)),
			fmt.Sprintf("%.0f", infoOn.EstimatedCost), fmt.Sprintf("%.0f", infoOff.EstimatedCost),
			latOn, latOff,
		})
	}
	t.Verdict = "rewrites cut estimated cost (to ~0 for unsatisfiable queries) and latency follows"
	return t
}

// RunPlacement measures OS.4: access cost, remote fraction, and memory
// footprint for three placement policies with and without remote caching.
func RunPlacement() *Table {
	t := &Table{
		ID:     "E-OS4",
		Title:  "DSM placement: affinity vs round-robin vs random",
		Claim:  "affinity placement eliminates remote access cost without the duplicated-cache memory footprint",
		Header: []string{"policy", "cache", "access cost", "remote frac", "footprint"},
	}
	r := rand.New(rand.NewSource(31))
	const groups, per, nodes = 16, 4, 4
	var parts []placement.Partition
	groupParts := make([][]int, groups)
	id := 0
	for g := 0; g < groups; g++ {
		for k := 0; k < per; k++ {
			parts = append(parts, placement.Partition{ID: id, Size: 1})
			groupParts[g] = append(groupParts[g], id)
			id++
		}
	}
	var w placement.Workload
	for i := 0; i < 600; i++ {
		w = append(w, placement.Access{Parts: groupParts[r.Intn(groups)]})
	}
	aff := placement.NewAffinity()
	aff.ObserveWorkload(w)
	cm := placement.CostModel{Local: 1, Remote: 10}

	policies := []struct {
		name string
		p    placement.Placement
	}{
		{"affinity", placement.AffinityPlace(parts, aff, nodes, groups*per/nodes)},
		{"round-robin", placement.RoundRobin(parts, nodes)},
		{"random", placement.Random(parts, nodes, 5)},
	}
	for _, pol := range policies {
		for _, cache := range []bool{false, true} {
			res := placement.Evaluate(pol.p, parts, w, cm, cache)
			cacheStr := "off"
			if cache {
				cacheStr = "on"
			}
			t.Rows = append(t.Rows, []string{
				pol.name, cacheStr,
				fmt.Sprintf("%.0f", res.AccessCost), pct(res.RemoteFraction),
				fmt.Sprintf("%.0f", res.Footprint),
			})
		}
	}
	t.Verdict = "affinity reaches local-only cost at base footprint; baselines need duplicated caches to compete"
	return t
}
