package scdb

import (
	"fmt"
	"strings"
	"testing"
)

func TestCompletePublicAPI(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	ents := []Entity{}
	for i, row := range []struct{ name, class, target string }{
		{"Warfarin", "anticoagulant", "VKORC1"},
		{"Heparin", "anticoagulant", "ATIII"},
		{"Ibuprofen", "nsaid", "PTGS2"},
		{"Naproxen", "nsaid", "PTGS2"},
		{"Aspirin", "nsaid", "PTGS1"},
	} {
		ents = append(ents, Entity{
			Key:   row.name,
			Attrs: Record{"name": row.name, "class": row.class, "target": row.target},
		})
		_ = i
	}
	must(db.Ingest(Source{Name: "drugs", Entities: ents}))

	c, err := db.Complete("drugs", Record{"name": "Ibuprofen", "class": nil, "target": nil}, nil, 3)
	must(err)
	if c.Completed["class"] != "nsaid" {
		t.Errorf("class = %v", c.Completed["class"])
	}
	if c.Completed["target"] != "PTGS2" {
		t.Errorf("target = %v", c.Completed["target"])
	}
	if c.Confidence["class"] <= 0 || c.Support["class"] < 1 {
		t.Errorf("confidence/support = %v %v", c.Confidence, c.Support)
	}
	if _, err := db.Complete("missing", Record{}, nil, 3); err == nil {
		t.Error("unknown table must fail")
	}
	if _, err := db.Complete("drugs", Record{"bad": struct{}{}}, nil, 3); err == nil {
		t.Error("bad value type must fail")
	}
}

// rowsOf runs q and returns its rows, failing the test on an error.
func rowsOf(t *testing.T, db *DB, q string) [][]any {
	t.Helper()
	rows, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return rows.Data
}

func TestResolveClaimPolicies(t *testing.T) {
	db := openSample(t)
	rowsOf(t, db, `INSERT INTO claims (entity, attr, value, source, confidence) VALUES
		('Warfarin', 'color', 'white', 'a', 0.5), ('Warfarin', 'color', 'white', 'b', 0.5),
		('Warfarin', 'color', 'ivory', 'c', 0.99)`)
	got := rowsOf(t, db, "SELECT value, support FROM resolve('Warfarin', 'color', 'vote')")
	if len(got) != 1 || got[0][0] != "white" || got[0][1].(float64) < 0.6 {
		t.Errorf("vote = %v", got)
	}
	got = rowsOf(t, db, "SELECT value FROM resolve('Warfarin', 'color', 'confident')")
	if len(got) != 1 || got[0][0] != "ivory" {
		t.Errorf("most confident = %v", got)
	}
	for _, q := range []string{
		"SELECT * FROM resolve('Nothing', 'color', 'vote')",   // unknown entity
		"SELECT * FROM resolve('Warfarin', 'absent', 'vote')", // no claims
		"SELECT * FROM resolve('Warfarin', 'color', 'tally')", // unknown policy
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("%s must fail", q)
		}
	}
}

func TestConflictsPublicAPI(t *testing.T) {
	db := openSample(t)
	rowsOf(t, db, ClinicalClaims)
	got := rowsOf(t, db, "SELECT entity, attr, value, sources, reconcilable FROM conflicts()")
	if len(got) != 3 {
		t.Fatalf("conflict rows = %v", got)
	}
	for _, r := range got {
		if r[0] != "Warfarin" || r[1] != "effective_dose_mg" {
			t.Errorf("conflict row = %v", r)
		}
		if r[4] != true {
			t.Error("disjoint population contexts must be reconcilable")
		}
	}
	// One row per distinct value, in value order.
	if srcs := got[1][3].([]any); got[1][2] != 5.1 || len(srcs) != 1 || srcs[0] != "trials-us" {
		t.Errorf("5.1 row = %v", got[1])
	}
}

func TestDiscoverPublic(t *testing.T) {
	db := openSample(t)
	const q = "SELECT step, entity FROM discover('Methotrexate', 10, 42) ORDER BY step"
	found := rowsOf(t, db, q)
	if len(found) == 0 {
		t.Fatal("walk discovered nothing")
	}
	// Determinism per seed, through a cache-free second run.
	if again := rowsOf(t, db, q+" LIMIT 100"); fmt.Sprint(again) != fmt.Sprint(found) {
		t.Errorf("walk not deterministic: %v then %v", found, again)
	}
	// Methotrexate's neighborhood includes its target or its disease.
	joined := fmt.Sprint(found)
	if !strings.Contains(joined, "DHFR") && !strings.Contains(joined, "Osteosarcoma") &&
		!strings.Contains(joined, "Rheumatoid Arthritis") {
		t.Errorf("unexpected discoveries: %v", found)
	}
	if _, err := db.Query("SELECT * FROM discover('Nobody', 5, 1)"); err == nil {
		t.Error("unknown entity must fail")
	}
}

func TestCrowdResolvePublic(t *testing.T) {
	db := openSample(t)
	rowsOf(t, db, `INSERT INTO claims (entity, attr, value, source) VALUES ('Warfarin', 'class', 'anticoagulant', 'a'),
		('Warfarin', 'class', 'anticoagulant', 'b'), ('Warfarin', 'class', 'rodenticide', 'c')`)
	const q = "SELECT value, agreement, asks, spent FROM crowd('Warfarin', 'class', 20, 0.9, 42)"
	ans := rowsOf(t, db, q)
	if len(ans) != 1 || ans[0][0] != "anticoagulant" {
		t.Fatalf("crowd picked %v", ans)
	}
	if ans[0][2].(int64) == 0 || ans[0][3].(float64) > 20 || ans[0][1].(float64) <= 0 {
		t.Errorf("outcome = %v", ans)
	}
	// Determinism per seed, through a cache-free second run.
	if again := rowsOf(t, db, q+" LIMIT 1"); fmt.Sprint(again) != fmt.Sprint(ans) {
		t.Errorf("crowd resolution not seed-deterministic: %v then %v", ans, again)
	}
	for _, q := range []string{
		"SELECT * FROM crowd('Warfarin', 'no-claims', 20, 0.9, 1)",
		"SELECT * FROM crowd('Nobody', 'class', 20, 0.9, 1)",
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("%s must fail", q)
		}
	}
}

func TestSuggestAndEnrichLinks(t *testing.T) {
	// Many drugs treat arthritis; one drug with the same target does not
	// yet have the edge — prediction should propose it.
	db, err := Open(Options{Axioms: `
sub Drug Chemical
concept Disease
concept Gene
domain treats Drug
`})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	src := Source{Name: "kb"}
	src.Entities = append(src.Entities,
		Entity{Key: "arthritis", Types: []string{"Disease"}, Attrs: Record{"name": "Arthritis"}},
		Entity{Key: "ptgs2", Types: []string{"Gene"}, Attrs: Record{"name": "PTGS2-gene"}},
	)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("drug%d", i)
		src.Entities = append(src.Entities, Entity{Key: key, Types: []string{"Drug"}, Attrs: Record{"name": "compound " + key}})
		src.Links = append(src.Links, Link{FromKey: key, Predicate: "targets", ToKey: "ptgs2"})
		if i > 0 { // drug0 lacks the treats edge
			src.Links = append(src.Links, Link{FromKey: key, Predicate: "treats", ToKey: "arthritis"})
		}
	}
	if err := db.Ingest(src); err != nil {
		t.Fatal(err)
	}

	sugg := rowsOf(t, db, `SELECT "from", predicate, "to", confidence FROM suggest_links('compound drug0', 'treats', 3)`)
	if len(sugg) == 0 {
		t.Fatal("no suggestions")
	}
	if sugg[0][0] != "compound drug0" || sugg[0][1] != "treats" || sugg[0][2] != "Arthritis" {
		t.Errorf("top suggestion = %v", sugg[0])
	}
	if c := sugg[0][3].(float64); c <= 0 || c >= 1 {
		t.Errorf("confidence = %v", c)
	}
	if _, err := db.Query("SELECT * FROM suggest_links('nobody', 'treats', 3)"); err == nil {
		t.Error("unknown entity must fail")
	}

	// Materialize predictions as enrichment; a semantic snapshot reader
	// must observe the churn.
	tx := db.Begin(Snapshot)
	tx.MarkSemanticRead()
	added, err := db.EnrichPredictedLinks("treats", 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("no predicted edges added")
	}
	if _, err := tx.Commit(); err == nil {
		t.Error("predictive enrichment must trip the snapshot reader")
	}
	// The new edge is queryable.
	rows, err := db.Query(`SELECT name FROM Drug AS d WHERE REACHES(d._id, 'Arthritis', 1) ORDER BY name WITH SEMANTICS`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 5 {
		t.Errorf("drugs treating arthritis after enrichment = %v", rows.Data)
	}
}

func TestPredictInPublicSCQL(t *testing.T) {
	db := openSample(t)
	// Ingest enough typed entities for the model, then an untyped one.
	for _, src := range LifeSciSample(5, 40, 30, 20) {
		if err := db.Ingest(src); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Query(`SELECT PREDICT(d._id) AS guess FROM Drug AS d WHERE d._key = 'DB00682'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0] != "Drug" {
		t.Errorf("PREDICT = %v", rows.Data)
	}
}

// TestSchemaAndTables reads the observed schema and the table list as the
// system relations sys.columns and sys.tables.
func TestSchemaAndTables(t *testing.T) {
	db := openSample(t)
	schema := rowsOf(t, db, `SELECT name, filled, kinds FROM sys.columns WHERE "table" = 'drugbank'`)
	if len(schema) == 0 {
		t.Fatal("no schema observed")
	}
	found := false
	for _, a := range schema {
		if a[0] == "name" {
			found = true
			if a[1] != int64(5) {
				t.Errorf("name filled = %v", a[1])
			}
			if fmt.Sprint(a[2]) != "[string×5]" {
				t.Errorf("name kinds = %v", a[2])
			}
		}
	}
	if !found {
		t.Error("name attribute missing from schema")
	}
	has := map[any]bool{}
	for _, r := range rowsOf(t, db, "SELECT name FROM sys.tables") {
		has[r[0]] = true
	}
	if !has["drugbank"] || !has["_catalog_ontology"] {
		t.Errorf("tables = %v", has)
	}
	if got := rowsOf(t, db, `SELECT name FROM sys.columns WHERE "table" = 'never-seen'`); len(got) != 0 {
		t.Errorf("schema of unknown table = %v", got)
	}
}

func TestCheckpointAndVacuumPublic(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin(Snapshot)
	id, _ := tx.Insert("t", Record{"v": 1})
	tx.Commit()
	for i := 2; i <= 5; i++ {
		tx := db.Begin(Snapshot)
		tx.Update("t", id, Record{"v": i})
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if removed := db.Vacuum(); removed < 3 {
		t.Errorf("vacuum removed %d versions", removed)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows, err := db2.Query("SELECT v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0].(int64) != 5 {
		t.Errorf("recovered rows = %v", rows.Data)
	}
	// In-memory checkpoint/vacuum are harmless no-ops.
	mem, _ := Open(Options{})
	defer mem.Close()
	if err := mem.Checkpoint(); err != nil {
		t.Errorf("in-memory checkpoint: %v", err)
	}
	if mem.Vacuum() != 0 {
		t.Error("fresh db vacuum must remove nothing")
	}
}
