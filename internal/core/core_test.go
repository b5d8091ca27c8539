package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"scdb/internal/curate"
	"scdb/internal/datagen"
	"scdb/internal/extract"
	"scdb/internal/model"
	"scdb/internal/query"
	"scdb/internal/richness"
	"scdb/internal/txn"
)

// doseClaims are the paper's three population-scoped dose claims on
// Warfarin.
const doseClaims = `INSERT INTO claims (entity, attr, value, source, context) VALUES
	('Warfarin', 'dose', 5.1, 'trials-us', 'White'),
	('Warfarin', 'dose', 3.4, 'trials-asia', 'Asian'),
	('Warfarin', 'dose', 6.1, 'trials-africa', 'Black')`

// mustQuery runs a statement that must succeed.
func mustQuery(t *testing.T, db *DB, q string) *query.Result {
	t.Helper()
	res, _, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// lifesciOptions is the standard engine configuration over Figure-2 data.
func lifesciOptions(dir string) Options {
	return Options{
		Dir:    dir,
		Axioms: datagen.LifeSciAxioms,
		LinkRules: []curate.LinkRule{
			{Predicate: "targets_symbol", EdgePredicate: "targets", TargetAttrs: []string{"symbol", "gene_symbol"}, TargetType: "Gene"},
			{Predicate: "treats_name", EdgePredicate: "treats", TargetAttrs: []string{"disease_name"}},
		},
		Patterns: []extract.Pattern{
			{Trigger: "treats", Predicate: "treats"},
			{Trigger: "targets", Predicate: "targets"},
		},
	}
}

// openLifeSci opens an engine and ingests the canonical Figure-2 sources.
func openLifeSci(t *testing.T) *DB {
	t.Helper()
	db, err := Open(lifesciOptions(""))
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

func TestEndToEndRelationalQuery(t *testing.T) {
	db := openLifeSci(t)
	res, info, err := db.Query("SELECT name FROM drugbank WHERE name LIKE 'W%' ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !model.Equal(res.Rows[0][0], model.String("Warfarin")) {
		t.Errorf("rows = %v", res.Rows)
	}
	if info.CacheHit {
		t.Error("first execution must miss the cache")
	}
	// Second run hits the materialization cache.
	_, info, err = db.Query("SELECT name FROM drugbank WHERE name LIKE 'W%' ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit {
		t.Error("repeat query must hit the cache")
	}
}

func TestConceptScanWithInference(t *testing.T) {
	db := openLifeSci(t)
	// Asserted Chemical membership only covers entities typed Chemical
	// directly (none); inference covers all drugs.
	res, _, err := db.Query(`SELECT _key FROM Chemical`)
	if err != nil {
		t.Fatal(err)
	}
	asserted := len(res.Rows)
	res, _, err = db.Query(`SELECT _key FROM Chemical WITH SEMANTICS`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) <= asserted {
		t.Errorf("inference must widen the extent: %d vs %d", len(res.Rows), asserted)
	}
	if len(res.Rows) < 5 {
		t.Errorf("all five drugs are Chemicals, got %d", len(res.Rows))
	}
}

func TestUnifiedQueryAcrossLayers(t *testing.T) {
	db := openLifeSci(t)
	// FS.5's unified language: relational scan + semantic concept source +
	// graph reachability in one statement. Which drugs can reach
	// Osteosarcoma within 3 hops (targets → associatedWith)?
	res, _, err := db.Query(`SELECT name FROM Drug AS d WHERE REACHES(d._id, 'Osteosarcoma', 3) ORDER BY name WITH SEMANTICS`)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range res.Rows {
		if s, ok := r[0].AsString(); ok {
			names[s] = true
		}
	}
	// Warfarin targets TP53, TP53 associatedWith Osteosarcoma; and
	// Methotrexate treats Osteosarcoma directly (1 hop).
	if !names["Warfarin"] {
		t.Errorf("Warfarin must reach Osteosarcoma: %v", names)
	}
	if !names["Methotrexate"] {
		t.Errorf("Methotrexate treats Osteosarcoma: %v", names)
	}
}

// explain answers q's EXPLAIN statement: the plan, its rewrites and cost.
func explain(db *DB, q string) (QueryInfo, error) {
	_, info, err := db.Query("EXPLAIN " + q)
	return info, err
}

func TestSemanticOptimizerWired(t *testing.T) {
	db := openLifeSci(t)
	info, err := explain(db, `SELECT name FROM drugbank WHERE ISA(x, 'Drug') AND ISA(x, 'Osteosarcoma') WITH SEMANTICS`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info.Plan, "Empty") {
		t.Errorf("disjoint ISA not proven empty:\n%s\nrules: %v", info.Plan, info.Rules)
	}
	// Without WITH SEMANTICS the rewrite must not fire (asserted-only ISA
	// has different semantics).
	info, err = explain(db, `SELECT name FROM drugbank WHERE ISA(x, 'Drug') AND ISA(x, 'Osteosarcoma')`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(info.Plan, "Empty") {
		t.Error("semantic rewrite fired without WITH SEMANTICS")
	}
}

func TestClaimsTableAnswerModes(t *testing.T) {
	db := openLifeSci(t)
	// The paper's parallel worlds: population-scoped dose claims.
	mustQuery(t, db, doseClaims)
	// Population classes must be disjoint for context classing.
	for _, pair := range [][2]string{{"White", "Asian"}, {"White", "Black"}, {"Asian", "Black"}} {
		db.onto.SubConceptOf(pair[0], "Population")
		db.onto.SubConceptOf(pair[1], "Population")
		db.onto.Disjoint(pair[0], pair[1])
	}

	res, _, err := db.Query(`SELECT value, context FROM claims ORDER BY value`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("default mode rows = %v", res.Rows)
	}
	// UNDER CERTAIN: no unanimous agreement → empty.
	res, _, err = db.Query(`SELECT value FROM claims UNDER CERTAIN`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("certain mode rows = %v (the paper's naive false)", res.Rows)
	}
	// UNDER FUZZY(0.9): each claim fully supported within its own disjoint
	// context class → all three justified.
	res, _, err = db.Query(`SELECT value, justification FROM claims UNDER FUZZY(0.9)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("fuzzy mode rows = %v", res.Rows)
	}
}

func TestJustifiedAnswerEndToEnd(t *testing.T) {
	db := openLifeSci(t)
	for _, pair := range [][2]string{{"White", "Asian"}, {"White", "Black"}, {"Asian", "Black"}} {
		db.onto.Disjoint(pair[0], pair[1])
	}
	for _, pop := range []string{"White", "Asian", "Black"} {
		db.onto.SubConceptOf(pop, "Population")
	}
	mustQuery(t, db, doseClaims)
	res, _, err := db.Query(`SELECT naive_certain, degree, refinements, sensitive FROM justify('Warfarin', 'dose', 5.0, 0.5)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("want a row per population class, got %v", res.Rows)
	}
	ans := res.Rows[0]
	if naive, _ := ans[0].AsBool(); naive {
		t.Error("naive certain must be false")
	}
	if d, _ := ans[1].AsFloat(); d < 0.79 || d > 0.81 {
		t.Errorf("justified degree = %v", d)
	}
	if refs, _ := ans[2].AsList(); len(refs) == 0 || !model.Equal(ans[3], model.Bool(true)) {
		t.Errorf("refinement loop incomplete: %v", ans)
	}
	if _, _, err := db.Query(`SELECT * FROM justify('Nonexistium', 'dose', 1, 1)`); err == nil {
		t.Error("unknown entity must error")
	}
}

func TestIngestInvalidatesCache(t *testing.T) {
	db := openLifeSci(t)
	q := "SELECT COUNT(*) AS n FROM drugbank"
	res1, _, _ := db.Query(q)
	n1, _ := res1.Rows[0][0].AsInt()
	// New delivery adds records; the cached count must not survive.
	if err := db.Ingest(datagen.Dataset{
		Source: "drugbank",
		Entities: []datagen.EntitySpec{{
			Key: "DBNEW", Types: []string{"Drug"},
			Attrs: model.Record{"name": model.String("Novel compound")},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	res2, info, _ := db.Query(q)
	if info.CacheHit {
		t.Error("cache must be invalidated by ingestion")
	}
	n2, _ := res2.Rows[0][0].AsInt()
	if n2 != n1+1 {
		t.Errorf("count %d → %d, want +1", n1, n2)
	}
}

func TestTransactionsWithEnrichmentChurn(t *testing.T) {
	db := openLifeSci(t)
	// A snapshot transaction that consulted semantics aborts when curation
	// advances the enrichment clock mid-flight (FS.11).
	tx := db.Begin(txn.Snapshot)
	tx.MarkSemanticRead()
	if err := db.Ingest(datagen.Dataset{
		Source:   "late",
		Entities: []datagen.EntitySpec{{Key: "k1", Types: []string{"Drug"}, Attrs: model.Record{"name": model.String("Latecomer")}}},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := tx.Commit()
	if !errors.Is(err, txn.ErrEnrichmentPhantom) {
		t.Fatalf("want enrichment phantom, got %v", err)
	}
	// The relaxed level commits with a staleness bound.
	tx2 := db.Begin(txn.EventualEnrichment)
	tx2.MarkSemanticRead()
	db.Ingest(datagen.Dataset{
		Source:   "late",
		Entities: []datagen.EntitySpec{{Key: "k2", Types: []string{"Drug"}, Attrs: model.Record{"name": model.String("Latecomer II")}}},
	})
	info, err := tx2.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if info.EnrichmentStaleness == 0 {
		t.Error("staleness bound missing")
	}
	st := db.txns.Stats()
	if st.EnrichmentAborts != 1 || st.Commits != 1 {
		t.Errorf("txn stats = %+v", st)
	}
	// A rebuild does not replay predicted edges, so its graph counts fewer
	// changes than the one it retires; to a transaction that read the
	// semantic layers the rebuild is still enrichment moving on.
	if n, err := db.EnrichPredictedLinks("treats", 1, 0.5); err != nil || n == 0 {
		t.Fatalf("EnrichPredictedLinks: %d edges, %v", n, err)
	}
	tx3 := db.Begin(txn.Snapshot)
	tx3.MarkSemanticRead()
	tx4 := db.Begin(txn.EventualEnrichment)
	tx4.MarkSemanticRead()
	if err := db.RefreshDerived(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx3.Commit(); !errors.Is(err, txn.ErrEnrichmentPhantom) {
		t.Errorf("across RefreshDerived: want enrichment phantom, got %v", err)
	}
	if info, err := tx4.Commit(); err != nil || info.EnrichmentStaleness == 0 {
		t.Errorf("across RefreshDerived: staleness %d, %v", info.EnrichmentStaleness, err)
	}
}

func TestRefreshRichnessFeedsFusion(t *testing.T) {
	db := openLifeSci(t)
	res := mustQuery(t, db, "REFRESH RICHNESS")
	all := richness.MeasureAll(db.graph)
	if len(all) < 3 || !model.Equal(res.Rows[0][0], model.Int(int64(len(all)))) {
		t.Fatalf("REFRESH RICHNESS = %v, sources = %d", res.Rows, len(all))
	}
	// One claim from each of three measured sources, each in its own
	// disjoint population: the world a claim holds in weighs its source's
	// share of the three scores, so worlds() answers the propagated weights.
	mustQuery(t, db, "ADD AXIOMS 'sub White Population', 'sub Asian Population', 'sub Black Population', "+
		"'disjoint White Asian', 'disjoint White Black', 'disjoint Asian Black'")
	score, total := map[string]float64{}, 0.0
	var claims []string
	for i, m := range all[:3] {
		score[m.Source] = m.Score
		total += m.Score
		claims = append(claims, fmt.Sprintf("('Warfarin', 'dose', %d, '%s', '%s')", i, m.Source, []string{"White", "Asian", "Black"}[i]))
	}
	mustQuery(t, db, "INSERT INTO claims (entity, attr, value, source, context) VALUES "+strings.Join(claims, ", "))
	worlds := mustQuery(t, db, "SELECT source, probability FROM worlds('Warfarin', 'dose')").Rows
	if len(worlds) != 3 {
		t.Fatalf("worlds = %v, want one a claim", worlds)
	}
	for _, r := range worlds {
		src, _ := r[0].AsString()
		if p, _ := r[1].AsFloat(); math.Abs(p-score[src]/total) > 1e-12 {
			t.Errorf("richness for %s not propagated: world probability %v, want %v", src, p, score[src]/total)
		}
	}
	// The weights are rows of the refresh's number.
	res = mustQuery(t, db, "SELECT COUNT(*) FROM _catalog_richness WHERE refresh = 1")
	if !model.Equal(res.Rows[0][0], model.Int(int64(len(all)))) {
		t.Errorf("refresh rows = %v, want %d", res.Rows, len(all))
	}
}

func TestStatsSnapshot(t *testing.T) {
	db := openLifeSci(t)
	st := db.Stats()
	if st.Tables < 3 || st.Entities == 0 || st.Edges == 0 || st.Concepts == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Witnesses == 0 {
		t.Error("Aminopterin's existential witness should be counted")
	}
}

func TestPersistenceAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(lifesciOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range datagen.LifeSci(1, 0, 0, 0) {
		if err := db.Ingest(ds); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen without seeding an ontology: it must come from the catalog.
	opts := lifesciOptions(dir)
	opts.Axioms = ""
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.onto.Subsumes("Chemical", "Drug") {
		t.Error("ontology not recovered from catalog")
	}
	res, _, err := db2.Query("SELECT COUNT(*) AS n FROM drugbank")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 5 {
		t.Errorf("recovered drugbank rows = %d", n)
	}
	// The schema is queryable after the reopen (meta-data is data).
	res, _, err = db2.Query("SELECT COUNT(*) AS n FROM sys.columns")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n == 0 {
		t.Error("schema rows must be queryable")
	}
}

func TestRelationLayerRebuiltOnOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(lifesciOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range datagen.LifeSci(1, 0, 0, 0) {
		if err := db.Ingest(ds); err != nil {
			t.Fatal(err)
		}
	}
	mustQuery(t, db, "INSERT INTO claims (entity, attr, value, source, context) VALUES ('Warfarin', 'dose', 5.1, 'trials-us', 'White')")
	before := db.Stats()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	opts := lifesciOptions(dir)
	opts.Axioms = "" // ontology must come back from the catalog too
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	after := db2.Stats()
	if after.Entities != before.Entities || after.Edges < before.Edges {
		t.Errorf("graph not rebuilt: before %+v after %+v", before, after)
	}
	if after.Merges == 0 {
		t.Error("ER merges not re-derived")
	}
	if after.Witnesses != before.Witnesses {
		t.Errorf("witnesses: before %d after %d", before.Witnesses, after.Witnesses)
	}
	// The Figure-2 reachability works without any re-ingest.
	res, _, err := db2.Query(`SELECT name FROM Drug AS d WHERE REACHES(d._id, 'Osteosarcoma', 3) ORDER BY name WITH SEMANTICS`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Errorf("reachability after rebuild = %v", res.Rows)
	}
	// The claim survived, attached to the rebuilt entity.
	w2, ok := db2.graph.FindByKey("drugbank", "DB00682")
	if !ok {
		t.Fatal("warfarin missing after rebuild")
	}
	claims := db2.worlds.ClaimsAbout(w2.ID, "dose")
	if len(claims) != 1 || claims[0].Source != "trials-us" {
		t.Errorf("claims after rebuild = %v", claims)
	}
	if len(claims) == 1 {
		if f, _ := claims[0].Value.AsFloat(); f != 5.1 {
			t.Errorf("claim value = %v", claims[0].Value)
		}
		if len(claims[0].Context) != 1 || claims[0].Context[0] != "White" {
			t.Errorf("claim context = %v", claims[0].Context)
		}
	}
	// Incremental ingestion continues cleanly after a rebuild.
	if err := db2.Ingest(datagen.Dataset{
		Source: "drugbank",
		Entities: []datagen.EntitySpec{{
			Key: "DBPOST", Types: []string{"Drug"},
			Attrs: model.Record{"name": model.String("Postrestart compound")},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if db2.Stats().Entities != after.Entities+1 {
		t.Error("post-rebuild ingest broken")
	}
}

func TestCSRSnapshotCacheAndEquivalence(t *testing.T) {
	db, err := Open(lifesciOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, ds := range datagen.LifeSci(4, 80, 60, 30) {
		if err := db.Ingest(ds); err != nil {
			t.Fatal(err)
		}
	}
	// The snapshot is cached while the graph is unchanged.
	c1 := db.csrSnapshot()
	if c2 := db.csrSnapshot(); c2 != c1 {
		t.Error("snapshot must be cached while the graph is unchanged")
	}
	// Mutation invalidates the snapshot.
	if err := db.Ingest(datagen.Dataset{Source: "late", Entities: []datagen.EntitySpec{{
		Key: "k", Types: []string{"Drug"}, Attrs: model.Record{"name": model.String("Fresh compound")},
	}}}); err != nil {
		t.Fatal(err)
	}
	if c3 := db.csrSnapshot(); c3 == c1 {
		t.Error("snapshot must rebuild after graph mutation")
	}
}

func TestQueryErrors(t *testing.T) {
	db := openLifeSci(t)
	if _, _, err := db.Query("SELECT FROM"); err == nil {
		t.Error("parse error must surface")
	}
	if _, _, err := db.Query("SELECT * FROM no_such_source"); err == nil {
		t.Error("unknown source must surface")
	}
	if _, err := explain(db, "SELECT nope FROM"); err == nil {
		t.Error("explain of invalid query must fail")
	}
}

func TestIsALinkedTypesPredicates(t *testing.T) {
	db := openLifeSci(t)
	// ISA over the concept extent: asserted vs inferred membership.
	res, _, err := db.Query(`SELECT _key FROM Drug AS d WHERE ISA(d._id, 'Chemical')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("asserted Chemical drugs = %v (none asserts Chemical directly)", res.Rows)
	}
	res, _, err = db.Query(`SELECT _key FROM Drug AS d WHERE ISA(d._id, 'Chemical') WITH SEMANTICS`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("inferred Chemical drugs = %d", len(res.Rows))
	}

	// LINKED between two concept extents: drug —targets→ gene.
	res, _, err = db.Query(`SELECT d._key, g._key FROM Drug AS d JOIN Gene AS g ON LINKED(d._id, g._id, 'targets') WITH SEMANTICS`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 3 {
		t.Errorf("LINKED pairs = %v", res.Rows)
	}
	// Directionality: genes never target drugs.
	res, _, err = db.Query(`SELECT g._key FROM Gene AS g JOIN Drug AS d ON LINKED(g._id, d._id, 'targets') WITH SEMANTICS`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("reverse LINKED = %v", res.Rows)
	}

	// TYPES returns the membership list; LENGTH works over lists.
	res, _, err = db.Query(`SELECT LENGTH(TYPES(d._id)) AS n FROM Drug AS d WHERE d._key = 'DB00682' WITH SEMANTICS`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if n, _ := res.Rows[0][0].AsInt(); n < 2 {
		t.Errorf("Warfarin type count = %d (Approved Drugs + Drug + Chemical expected)", n)
	}
	// Non-ref arguments degrade to Unknown, not errors.
	res, _, err = db.Query(`SELECT name FROM drugbank WHERE ISA(name, 'Drug')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("ISA over a string = %v rows", len(res.Rows))
	}
}

func TestPredictFunctionInEngine(t *testing.T) {
	db, err := Open(lifesciOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, ds := range datagen.LifeSci(2, 60, 40, 20) {
		if err := db.Ingest(ds); err != nil {
			t.Fatal(err)
		}
	}
	// An untyped arrival: curation has no asserted types for it, but the
	// statistical layer can guess from its attributes.
	if err := db.Ingest(datagen.Dataset{Source: "feed", Entities: []datagen.EntitySpec{{
		Key:   "mystery",
		Attrs: model.Record{"name": model.String("compound 9999")},
	}}}); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.Query(`SELECT PREDICT(f._id) AS guess FROM Drug AS f WHERE f._key = 'DB00682' WITH SEMANTICS`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !model.Equal(res.Rows[0][0], model.String("Drug")) {
		t.Errorf("PREDICT over Warfarin = %v", res.Rows)
	}
	// Model is cached per graph version.
	tp1 := db.typePredictor()
	if tp1 == nil {
		t.Fatal("no type model despite typed entities")
	}
	if db.typePredictor() != tp1 {
		t.Error("model must be cached while the graph is unchanged")
	}
	db.Ingest(datagen.Dataset{Source: "feed", Entities: []datagen.EntitySpec{{
		Key: "another", Attrs: model.Record{"name": model.String("thing")},
	}}})
	if db.typePredictor() == tp1 {
		t.Error("model must retrain after graph mutation")
	}
	// Engine with no typed entities has no model; PREDICT yields null.
	empty, _ := Open(Options{Axioms: datagen.LifeSciAxioms})
	defer empty.Close()
	if empty.typePredictor() != nil {
		t.Error("untrained engine must have no model")
	}
}

func TestAccessorsAndTableRecords(t *testing.T) {
	db := openLifeSci(t)
	if db.Graph() == nil || db.Reasoner() == nil ||
		db.Store() == nil || db.Pipeline() == nil {
		t.Fatal("nil layer accessor")
	}
	recs, ok := db.TableRecords("drugbank")
	if !ok || len(recs) != 5 {
		t.Errorf("TableRecords = %d %v", len(recs), ok)
	}
	if _, ok := db.TableRecords("nope"); ok {
		t.Error("unknown table must report !ok")
	}
	if removed := db.Vacuum(); removed != 0 {
		t.Errorf("fresh engine vacuum removed %d", removed)
	}
}

func TestLookupEntityByName(t *testing.T) {
	db := openLifeSci(t)
	e, ok := db.graph.Entity(db.lookupByText("warfarin")) // case-insensitive text match
	if !ok {
		t.Fatal("lookup by name failed")
	}
	if n, _ := e.Attrs.Get("name").AsString(); n != "Warfarin" {
		t.Errorf("looked up %v", e)
	}
	if db.lookupByText("definitely-not-present") != model.NoEntity {
		t.Error("unknown name must not resolve")
	}
}
