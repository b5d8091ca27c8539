package curate

import (
	"reflect"
	"testing"

	"scdb/internal/datagen"
	"scdb/internal/extract"
	"scdb/internal/graph"
	"scdb/internal/model"
	"scdb/internal/storage"
)

// pipelineOver builds a fresh pipeline over an existing store.
func pipelineOver(t *testing.T, s *storage.Store) (*Pipeline, *graph.Graph) {
	t.Helper()
	g := graph.New()
	p, err := NewPipeline(Config{
		Store:    s,
		Graph:    g,
		Ontology: datagen.LifeSciOntology(),
		LinkRules: []LinkRule{
			{Predicate: "targets_symbol", EdgePredicate: "targets", TargetAttrs: []string{"symbol", "gene_symbol"}, TargetType: "Gene"},
			{Predicate: "treats_name", EdgePredicate: "treats", TargetAttrs: []string{"disease_name"}},
		},
		Patterns: []extract.Pattern{
			{Trigger: "treats", Predicate: "treats"},
			{Trigger: "targets", Predicate: "targets"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, g
}

func TestRebuildReproducesGraph(t *testing.T) {
	s, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p1, g1 := pipelineOver(t, s)
	for _, ds := range datagen.LifeSci(1, 20, 15, 10) {
		if err := p1.Ingest(NewDelivery(ds), nil); err != nil {
			t.Fatal(err)
		}
	}

	// A second pipeline over the same store rebuilds the same graph.
	p2, g2 := pipelineOver(t, s)
	if err := p2.RebuildFromStore(); err != nil {
		t.Fatal(err)
	}
	if g2.NumEntities() != g1.NumEntities() {
		t.Errorf("entities: rebuilt %d vs live %d", g2.NumEntities(), g1.NumEntities())
	}
	if g2.NumEdges() != g1.NumEdges() {
		t.Errorf("edges: rebuilt %d vs live %d", g2.NumEdges(), g1.NumEdges())
	}
	if p2.Stats().Merges != p1.Stats().Merges {
		t.Errorf("merges: rebuilt %d vs live %d", p2.Stats().Merges, p1.Stats().Merges)
	}
	if p2.Stats().LinksPending != p1.Stats().LinksPending {
		t.Errorf("pending: rebuilt %d vs live %d", p2.Stats().LinksPending, p1.Stats().LinksPending)
	}
	// Reasoner state matches too.
	if p2.Reasoner().Stats().Witnesses != p1.Reasoner().Stats().Witnesses {
		t.Errorf("witnesses: rebuilt %d vs live %d",
			p2.Reasoner().Stats().Witnesses, p1.Reasoner().Stats().Witnesses)
	}
	// Per-entity check on the canonical Figure-2 chain.
	w1, ok1 := g1.FindByKey("drugbank", "DB00682")
	w2, ok2 := g2.FindByKey("drugbank", "DB00682")
	if !ok1 || !ok2 {
		t.Fatal("warfarin missing")
	}
	if len(g1.Edges(w1.ID)) != len(g2.Edges(w2.ID)) {
		t.Errorf("warfarin edges: %d vs %d", len(g1.Edges(w1.ID)), len(g2.Edges(w2.ID)))
	}
	// New ingests after a rebuild use fresh sequence numbers.
	if err := p2.Ingest(NewDelivery(datagen.Dataset{
		Source: "drugbank",
		Entities: []datagen.EntitySpec{{Key: "DBNEW", Types: []string{"Drug"},
			Attrs: model.Record{"name": model.String("post rebuild")}}},
		Links: []datagen.LinkSpec{{FromKey: "DBNEW", Predicate: "targets_symbol",
			Literal: model.String("DHFR"), Confidence: 1}},
	}), nil); err != nil {
		t.Fatal(err)
	}
	if g2.NumEntities() != g1.NumEntities()+1 {
		t.Error("post-rebuild ingest broken")
	}
}

func TestRebuildEmptyStoreNoop(t *testing.T) {
	s, _ := storage.Open("")
	defer s.Close()
	p, g := pipelineOver(t, s)
	if err := p.RebuildFromStore(); err != nil {
		t.Fatal(err)
	}
	if g.NumEntities() != 0 {
		t.Error("empty rebuild created entities")
	}
}

func TestRebuildSkipsTransactionalRows(t *testing.T) {
	s, _ := storage.Open("")
	defer s.Close()
	p1, _ := pipelineOver(t, s)
	p1.Ingest(NewDelivery(datagen.Dataset{
		Source:   "src",
		Entities: []datagen.EntitySpec{{Key: "k", Attrs: model.Record{"name": model.String("real")}}},
	}), nil)
	// A row without _key (as a transaction would write) is instance-only.
	tb, _ := s.Table("src")
	tb.InsertBatch([]model.Record{{"note": model.String("not curated")}})

	p2, g2 := pipelineOver(t, s)
	if err := p2.RebuildFromStore(); err != nil {
		t.Fatal(err)
	}
	if g2.NumEntities() != 1 {
		t.Errorf("rebuilt entities = %d, want 1 (keyless rows skipped)", g2.NumEntities())
	}
}

// TestEntityBorrowsStoredRow: a curated entity's attributes are its stored
// row, not a second map. After a live ingest, and again after a rebuild
// from the store, every entity that neither a merge nor a re-delivery
// filled holds the very map its row holds.
func TestEntityBorrowsStoredRow(t *testing.T) {
	s, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dss := append(datagen.LifeSci(1, 20, 15, 10), datagen.Stream(3, 40)...)
	live, g1 := pipelineOver(t, s)
	for _, ds := range dss {
		if err := live.Ingest(NewDelivery(ds), nil); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt, g2 := pipelineOver(t, s)
	if err := rebuilt.RebuildFromStore(); err != nil {
		t.Fatal(err)
	}
	enc := func(r model.Record) string {
		vis := model.Record{}
		for k, v := range r {
			if !model.IsRowColumn(k) {
				vis[k] = v
			}
		}
		return string(model.AppendRecord(nil, vis))
	}
	for _, c := range []struct {
		name string
		p    *Pipeline
		g    *graph.Graph
	}{{"live", live, g1}, {"rebuilt", rebuilt, g2}} {
		shared, filled := 0, 0
		order, _, _ := c.p.loadOrder()
		for _, src := range order {
			tb, _ := s.Table(src)
			tb.Scan(func(_ storage.RowID, row model.Record) bool {
				key, _ := row.Get(model.KeyAttr).AsString()
				e, ok := c.g.FindByKey(src, key)
				if !ok || e.Source != src || e.Key != key {
					return true // merged into another source's entity
				}
				if enc(e.Attrs) != enc(row) {
					filled++
					return true
				}
				if reflect.ValueOf(e.Attrs).UnsafePointer() != reflect.ValueOf(row).UnsafePointer() {
					t.Errorf("%s: %s/%s holds a copy of its stored row", c.name, src, key)
				}
				shared++
				return true
			})
		}
		if shared == 0 || filled == 0 {
			t.Fatalf("%s: %d entities share their row and %d were filled; the corpus must have both", c.name, shared, filled)
		}
		t.Logf("%s: %d entities share their stored row, %d were filled", c.name, shared, filled)
	}
}
