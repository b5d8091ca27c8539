package curate

import (
	"fmt"
	"testing"

	"scdb/internal/datagen"
	"scdb/internal/extract"
	"scdb/internal/graph"
	"scdb/internal/model"
	"scdb/internal/ontology"
	"scdb/internal/storage"
)

// lifesciPipeline assembles the standard pipeline over the Figure-2 data.
func lifesciPipeline(t *testing.T) (*Pipeline, *graph.Graph, *storage.Store) {
	t.Helper()
	return lifesciPipelineOver(t, datagen.LifeSciOntology())
}

// lifesciPipelineOver is lifesciPipeline over an ontology the caller keeps.
func lifesciPipelineOver(t *testing.T, o *ontology.Ontology) (*Pipeline, *graph.Graph, *storage.Store) {
	t.Helper()
	s, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	g := graph.New()
	p, err := NewPipeline(Config{
		Store:    s,
		Graph:    g,
		Ontology: o,
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
	return p, g, s
}

func ingestLifeSci(t *testing.T, p *Pipeline) {
	t.Helper()
	for _, ds := range datagen.LifeSci(1, 0, 0, 0) {
		if err := p.Ingest(NewDelivery(ds), nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPipelineIngestsAllLayers(t *testing.T) {
	p, g, s := lifesciPipeline(t)
	ingestLifeSci(t, p)
	st := p.Stats()
	if st.Datasets != 3 || st.Records == 0 || st.Entities == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Instance layer: per-source tables exist with rows.
	for _, src := range []string{"drugbank", "ctd", "uniprot"} {
		tb, ok := s.Table(src)
		if !ok || tb.Len() == 0 {
			t.Errorf("table %s missing or empty", src)
		}
	}
	// Relation layer: graph populated.
	if g.NumEntities() == 0 || g.NumEdges() == 0 {
		t.Error("graph empty")
	}
}

func TestLinkDiscoveryAcrossSources(t *testing.T) {
	p, g, _ := lifesciPipeline(t)
	ingestLifeSci(t, p)
	// DrugBank's "targets_symbol DHFR" literal must have become a real
	// edge to UniProt's DHFR entity (ingested later → retried pending).
	mtx, ok := g.FindByKey("drugbank", "DB00563")
	if !ok {
		t.Fatal("Methotrexate missing")
	}
	// Both the link rule and the text extraction may contribute an edge
	// (different provenance); the distinct target set must be one gene.
	distinct := map[model.EntityID]bool{}
	for _, id := range g.Neighbors(mtx.ID, "targets") {
		distinct[id] = true
	}
	if len(distinct) != 1 {
		t.Fatalf("Methotrexate target set = %v (discovered links: %d, pending: %d)",
			distinct, p.Stats().LinksDiscovered, p.Stats().LinksPending)
	}
	targets := g.Neighbors(mtx.ID, "targets")
	te, _ := g.Entity(targets[0])
	sym, _ := te.Attrs.Get("symbol").AsString()
	gsym, _ := te.Attrs.Get("gene_symbol").AsString()
	if sym != "DHFR" && gsym != "DHFR" {
		t.Errorf("Methotrexate target = %v", te)
	}
	if p.Stats().LinksPending != 0 {
		t.Errorf("pending links = %d, want 0 after all sources arrive", p.Stats().LinksPending)
	}
}

func TestFigure2PathReachable(t *testing.T) {
	p, g, _ := lifesciPipeline(t)
	ingestLifeSci(t, p)
	// The Figure-2 multi-hop story: Methotrexate → DHFR ... and
	// Warfarin → TP53 → Osteosarcoma via CTD's association.
	warfarin, ok := g.FindByKey("drugbank", "DB00682")
	if !ok {
		t.Fatal("Warfarin missing")
	}
	osteo, ok := g.FindByKey("ctd", "mesh:D012516")
	if !ok {
		t.Fatal("Osteosarcoma missing")
	}
	csr := g.BuildCSR(graph.OrderBFS)
	from, to := g.Resolve(warfarin.ID), g.Resolve(osteo.ID)
	if !csr.Reaches(from, to, 3, nil) {
		t.Error("Warfarin must reach Osteosarcoma within 3 hops (targets → associatedWith)")
	}
	// The path has 3 nodes: 2 hops, not 1.
	if csr.Reaches(from, to, 1, nil) || !csr.Reaches(from, to, 2, nil) {
		t.Error("Warfarin's path to Osteosarcoma must take exactly 2 hops")
	}
}

func TestERMergesCrossSourceGenes(t *testing.T) {
	p, g, _ := lifesciPipeline(t)
	ingestLifeSci(t, p)
	if p.Stats().Merges == 0 {
		t.Fatal("no ER merges despite cross-source duplicates")
	}
	// UniProt P35354 and CTD gene:PTGS2 must be one entity.
	up, ok1 := g.FindByKey("uniprot", "P35354")
	ctd, ok2 := g.FindByKey("ctd", "gene:PTGS2")
	if !ok1 || !ok2 {
		t.Fatal("gene records missing")
	}
	if up.ID != ctd.ID {
		t.Errorf("PTGS2 not merged: %d vs %d", up.ID, ctd.ID)
	}
}

func TestExtractionAddsEdges(t *testing.T) {
	p, g, _ := lifesciPipeline(t)
	ingestLifeSci(t, p)
	if p.Stats().Extractions == 0 {
		t.Fatal("no extractions from CTD abstracts")
	}
	// "Methotrexate treats Rheumatoid Arthritis" came only from text.
	mtx, _ := g.FindByKey("drugbank", "DB00563")
	found := false
	for _, e := range g.EdgesByPredicate(mtx.ID, "treats") {
		to, ok := e.To.AsRef()
		if !ok {
			continue
		}
		te, _ := g.Entity(to)
		if n, _ := te.Attrs.Get("disease_name").AsString(); n == "Rheumatoid Arthritis" {
			found = true
			if e.Confidence >= 1 {
				t.Error("extracted edge must carry confidence < 1")
			}
		}
	}
	if !found {
		t.Error("extracted treats edge missing")
	}
}

func TestSemanticEnrichment(t *testing.T) {
	o := datagen.LifeSciOntology()
	p, g, _ := lifesciPipelineOver(t, o)
	ingestLifeSci(t, p)
	r := p.Reasoner()
	// Acetaminophen: Drug ⊑ ∃hasTarget.Gene — but the CTD abstract says it
	// targets PTGS2, so the witness must be discharged.
	ace, _ := g.FindByKey("drugbank", "DB00316")
	if w := r.Witnesses(ace.ID); len(w) != 0 {
		t.Errorf("Acetaminophen witness should be discharged by extraction: %v", w)
	}
	// Aminopterin has no target anywhere → witness stands.
	amino, _ := g.FindByKey("drugbank", "DB01118")
	if w := r.Witnesses(amino.ID); len(w) != 1 {
		t.Errorf("Aminopterin witnesses = %v, want the inferred hasTarget", w)
	}
	// Subsumption closure works end to end.
	if !r.HasType(ace.ID, "Chemical") {
		t.Error("Acetaminophen must be inferred Chemical")
	}
	// Stats flowed into the ontology for the optimizer.
	if n, ok := o.InstanceCount("Drug"); !ok || n < 5 {
		t.Errorf("Drug instance count = %d %v", n, ok)
	}
}

// TestEnrichmentVersionAdvances: curation moves the enrichment clock
// transaction validation watches, the graph and ontology versions' sum.
func TestEnrichmentVersionAdvances(t *testing.T) {
	o := datagen.LifeSciOntology()
	p, g, _ := lifesciPipelineOver(t, o)
	version := func() uint64 { return g.Version() + o.Version() }
	v0 := version()
	ingestLifeSci(t, p)
	if version() <= v0 {
		t.Error("enrichment version must advance on curation")
	}
}

func TestPipelineConfigValidation(t *testing.T) {
	if _, err := NewPipeline(Config{}); err == nil {
		t.Error("empty config must fail")
	}
}

func TestPipelineAccessorsAndPolicyStrings(t *testing.T) {
	p, _, _ := lifesciPipeline(t)
	if p.Resolver() == nil {
		t.Error("Resolver accessor nil")
	}
	if PolicyRanked.String() != "ranked" || PolicyLRU.String() != "lru" {
		t.Error("MatPolicy strings broken")
	}
	if MatPolicy(7).String() != "matpolicy(7)" {
		t.Error("unknown policy string broken")
	}
	// Default capacity applies for non-positive sizes.
	c := NewMatCache(0, PolicyLRU)
	for i := 0; i < 70; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 1)
	}
	if c.Len() != 64 {
		t.Errorf("default capacity = %d, want 64", c.Len())
	}
}

func TestLookupValueAmbiguityResolvesToLowestCanonical(t *testing.T) {
	p, g, _ := lifesciPipeline(t)
	// Two sources share a value; lookup must resolve deterministically.
	for i, src := range []string{"s1", "s2"} {
		if err := p.Ingest(NewDelivery(datagen.Dataset{
			Source: src,
			Entities: []datagen.EntitySpec{{
				Key:   fmt.Sprintf("k%d", i),
				Types: []string{"Gene"},
				Attrs: model.Record{"symbol": model.String("SHARED"), "extra": model.String(fmt.Sprintf("distinct %d value", i))},
			}},
		}), nil); err != nil {
			t.Fatal(err)
		}
	}
	id := p.lookupValue("SHARED")
	if id == model.NoEntity {
		t.Fatal("lookup failed")
	}
	if id != g.Resolve(id) {
		t.Error("lookup must return a canonical entity")
	}
}

// --- MatCache ----------------------------------------------------------

func TestMatCacheBasics(t *testing.T) {
	c := NewMatCache(2, PolicyLRU)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache hit")
	}
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Error("Get a failed")
	}
	c.Put("c", 3, 1) // evicts b (LRU)
	if _, ok := c.Get("b"); ok {
		t.Error("b should be evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should survive (recently used)")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("stats = %+v", st)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestMatCacheRankedKeepsHighBenefit(t *testing.T) {
	c := NewMatCache(2, PolicyRanked)
	c.Put("cheap", 1, 1)
	c.Put("pricey", 2, 100)
	// Touch cheap so LRU would keep it; ranked keeps pricey instead.
	c.Get("cheap")
	c.Put("new", 3, 1) // evict lowest rank: cheap has rank 2, pricey 100
	if _, ok := c.Get("pricey"); !ok {
		t.Error("high-benefit entry evicted")
	}
	if _, ok := c.Get("cheap"); ok {
		t.Error("low-benefit entry retained over high-benefit")
	}
}

func TestMatCacheUpdateAndInvalidate(t *testing.T) {
	c := NewMatCache(4, PolicyRanked)
	c.Put("k", 1, 5)
	c.Put("k", 2, 5) // update, not duplicate
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	if v, _ := c.Get("k"); v.(int) != 2 {
		t.Error("update lost")
	}
	c.Put("x", 1, 1)
	c.InvalidateAll()
	if c.Len() != 0 {
		t.Error("InvalidateAll failed")
	}
}

func TestMatCacheHitRate(t *testing.T) {
	c := NewMatCache(8, PolicyRanked)
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("q%d", i%2)
		if _, ok := c.Get(key); !ok {
			c.Put(key, i, 1)
		}
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("HitRate = %v", st.HitRate())
	}
	if (MatStats{}).HitRate() != 0 {
		t.Error("empty hit rate must be 0")
	}
}
