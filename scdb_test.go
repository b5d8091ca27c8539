package scdb

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"scdb/internal/txn"
)

// openSample opens an in-memory engine loaded with the Figure-2 canon.
func openSample(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Options{
		Axioms:    LifeSciAxioms + PopulationAxioms,
		LinkRules: LifeSciLinkRules(),
		Patterns:  LifeSciPatterns(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, src := range LifeSciSample(1, 0, 0, 0) {
		if err := db.Ingest(src); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestOpenZeroOptions(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Ingest(Source{Name: "s", Entities: []Entity{{Key: "k", Attrs: Record{"x": 1}}}}); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query("SELECT x FROM s")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0].(int64) != 1 {
		t.Errorf("rows = %v", rows.Data)
	}
}

// TestOptionsReachTheirLayer: every facade option changes the engine
// options Open builds, so a field the conversion forgets fails here.
// Axioms is exempt: Open parses it into the ontology after the engine opens.
func TestOptionsReachTheirLayer(t *testing.T) {
	zero, err := Options{}.engineOptions()
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "Axioms" {
			continue
		}
		var opts Options
		v := reflect.ValueOf(&opts).Elem().Field(i)
		switch {
		case v.Kind() == reflect.String:
			v.SetString("ann") // a blocking mode, and a directory name
		case v.Kind() == reflect.Bool:
			v.SetBool(true)
		case v.CanInt():
			v.SetInt(1)
		case v.Kind() == reflect.Slice:
			v.Set(reflect.MakeSlice(f.Type, 1, 1))
		default:
			t.Fatalf("Options.%s: no non-zero value for kind %s", f.Name, v.Kind())
		}
		got, err := opts.engineOptions()
		if err != nil {
			t.Fatalf("Options.%s: %v", f.Name, err)
		}
		if reflect.DeepEqual(got, zero) {
			t.Errorf("Options.%s does not reach the engine options", f.Name)
		}
	}
}

func TestValueConversionRoundTrip(t *testing.T) {
	now := time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC)
	rec := Record{
		"nil":   nil,
		"bool":  true,
		"int":   42,
		"int64": int64(43),
		"float": 1.5,
		"str":   "x",
		"time":  now,
		"bytes": []byte{1, 2},
		"list":  []any{1, "a"},
	}
	mr, err := toRecord(rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fromValue(mr["int"]).(int64) != 42 {
		t.Error("int conversion")
	}
	if fromValue(mr["time"]).(time.Time) != now {
		t.Error("time conversion")
	}
	if got := fromValue(mr["list"]).([]any); len(got) != 2 || got[0].(int64) != 1 {
		t.Errorf("list conversion = %v", got)
	}
	if fromValue(mr["nil"]) != nil {
		t.Error("nil conversion")
	}
	if _, err := toValue(struct{}{}); err == nil {
		t.Error("unsupported type must error")
	}
}

// TestEqualFloatsShareHashedOperators: -0.0 equals 0, and any two NaNs are
// Equal, so every operator that keys on Value.Hash must see one value. Hash
// used to hash the float's bits: WHERE x = 0 found both zero rows, but
// GROUP BY and DISTINCT split them and a hash join on 0 dropped the -0.0 row.
func TestEqualFloatsShareHashedOperators(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 0x2)
	for _, src := range []Source{
		{Name: "t", Entities: []Entity{
			{Key: "a", Attrs: Record{"name": "alpha", "x": 0.0}},
			{Key: "b", Attrs: Record{"name": "bravo", "x": math.Copysign(0, -1)}},
		}},
		{Name: "u", Entities: []Entity{{Key: "c", Attrs: Record{"label": "charlie", "y": 0}}}},
		{Name: "n", Entities: []Entity{
			{Key: "d", Attrs: Record{"name": "delta", "x": math.NaN()}},
			{Key: "e", Attrs: Record{"name": "echo", "x": otherNaN}},
		}},
	} {
		if err := db.Ingest(src); err != nil {
			t.Fatal(err)
		}
	}
	for q, want := range map[string]string{
		"SELECT name FROM t WHERE x = 0 ORDER BY name":             "[[alpha] [bravo]]",
		"SELECT COUNT(*) AS k FROM t GROUP BY x":                   "[[2]]",
		"SELECT DISTINCT x FROM t":                                 "[[0]]",
		"SELECT t.name FROM t JOIN u ON t.x = u.y ORDER BY t.name": "[[alpha] [bravo]]",
		"SELECT COUNT(*) AS k FROM n GROUP BY x":                   "[[2]]",
		"SELECT DISTINCT x FROM n":                                 "[[NaN]]",
	} {
		rows, err := db.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		if got := fmt.Sprint(rows.Data); got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	if err := db.Ingest(Source{}); err == nil {
		t.Error("nameless source must fail")
	}
	if err := db.Ingest(Source{Name: "s", Entities: []Entity{{Key: "k", Attrs: Record{"bad": struct{}{}}}}}); err == nil {
		t.Error("unsupported attr type must fail")
	}
}

// TestSourceKeyPairsDoNotCollide: an entity is named by its (source, key)
// pair, and two distinct pairs are two entities whatever bytes they hold.
// Joining them with a NUL made source "a" with key "b\x00c" and source
// "a\x00b" with key "c" one entity, so the second lost its name.
func TestSourceKeyPairsDoNotCollide(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, src := range []Source{
		{Name: "a", Entities: []Entity{{Key: "b\x00c", Types: []string{"Thing"}, Attrs: Record{"name": "alpha widget"}}}},
		{Name: "a\x00b", Entities: []Entity{{Key: "c", Types: []string{"Thing"}, Attrs: Record{"name": "omega gizmo"}}}},
	} {
		if err := db.Ingest(src); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Query(`SELECT name FROM Thing AS t ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rows.Data); got != "[[alpha widget] [omega gizmo]]" {
		t.Errorf("Thing holds %s, want the two entities [[alpha widget] [omega gizmo]]", got)
	}
}

func TestQuickstartFlow(t *testing.T) {
	db := openSample(t)
	// Cross-layer SCQL: concept source + reachability + semantics.
	rows, info, err := db.QueryInfo(`SELECT name FROM Drug AS d WHERE REACHES(d._id, 'Osteosarcoma', 3) ORDER BY name WITH SEMANTICS`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) < 2 {
		t.Errorf("rows = %v", rows.Data)
	}
	if info.Plan != "" {
		t.Errorf("a plain statement carries plan text:\n%s", info.Plan)
	}
	ex, err := db.Explain(`SELECT name FROM Drug AS d WHERE REACHES(d._id, 'Osteosarcoma', 3) ORDER BY name WITH SEMANTICS`)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Plan == "" {
		t.Error("Explain: plan missing")
	}
	// Witnesses: Aminopterin's inferred target.
	w := rowsOf(t, db, "SELECT entity FROM witnesses() WHERE entity = 'Aminopterin' AND role = 'hasTarget' AND filler = 'Gene'")
	if len(w) != 1 {
		t.Errorf("Aminopterin witness missing: %v", rowsOf(t, db, "SELECT * FROM witnesses()"))
	}
	st := db.Stats()
	if st.Entities == 0 || st.Merges == 0 || st.Concepts == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWarfarinScenarioPublicAPI(t *testing.T) {
	db := openSample(t)
	if got := rowsOf(t, db, ClinicalClaims); len(got) != 1 || got[0][0] != int64(3) {
		t.Errorf("INSERT answered %v, want [[3]]", got)
	}
	ans := rowsOf(t, db, `SELECT context, context_degree, naive_certain, degree, explanation, sensitive, refinements
		FROM justify('Warfarin', 'effective_dose_mg', 5.0, 0.5)`)
	if len(ans) != 3 || ans[0][0] != "Asian" || ans[2][0] != "White" || ans[2][1].(float64) < 0.79 {
		t.Errorf("per-context rows = %v", ans)
	}
	a := ans[0]
	if a[2] != false {
		t.Error("naive certain answer must be false")
	}
	if d := a[3].(float64); d < 0.79 || d > 0.81 {
		t.Errorf("justified degree = %v", d)
	}
	if a[5] != true {
		t.Error("sensitivity must be discovered")
	}
	if len(a[6].([]any)) == 0 {
		t.Error("refinements missing")
	}
	if !strings.Contains(a[4].(string), "White") {
		t.Errorf("explanation = %q", a[4])
	}
	// The claims table under the answer modes.
	rows, err := db.Query("SELECT value FROM claims UNDER CERTAIN")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 0 {
		t.Errorf("certain rows = %v", rows.Data)
	}
	rows, err = db.Query("SELECT value, context FROM claims ORDER BY value UNDER FUZZY(0.9)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 3 {
		t.Errorf("fuzzy rows = %v", rows.Data)
	}
	if _, err := db.Query("INSERT INTO claims (entity, attr, value, source) VALUES ('NoSuchThing', 'a', 1, 's')"); err == nil {
		t.Error("claim about unknown entity must fail")
	}
}

func TestExplainAndAxioms(t *testing.T) {
	db := openSample(t)
	info, err := db.Explain(`SELECT name FROM drugbank WHERE ISA(x, 'Drug') AND ISA(x, 'Osteosarcoma') WITH SEMANTICS`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info.Plan, "Empty") {
		t.Errorf("plan = %s", info.Plan)
	}
	rowsOf(t, db, "ADD AXIOMS 'sub Biologic Drug'")
	if _, err := db.Query("ADD AXIOMS 'garbage axiom line here'"); err == nil {
		t.Error("bad axiom must fail")
	}
}

func TestPublicTransactions(t *testing.T) {
	db := openSample(t)
	tx := db.Begin(Snapshot)
	id, err := tx.Insert("notes", Record{"text": "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok, _ := tx.Get("notes", id); !ok || rec["text"].(string) != "hello" {
		t.Error("read-your-writes failed")
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Enrichment phantom via the public API.
	tx2 := db.Begin(Snapshot)
	tx2.MarkSemanticRead()
	db.Ingest(Source{Name: "later", Entities: []Entity{{Key: "x", Attrs: Record{"a": 1}}}})
	if _, err := tx2.Commit(); !errors.Is(err, txn.ErrEnrichmentPhantom) {
		t.Errorf("want enrichment phantom, got %v", err)
	}
	// Relaxed level reports staleness.
	tx3 := db.Begin(EventualEnrichment)
	tx3.MarkSemanticRead()
	db.Ingest(Source{Name: "later", Entities: []Entity{{Key: "y", Attrs: Record{"a": 2}}}})
	stale, err := tx3.Commit()
	if err != nil || stale == 0 {
		t.Errorf("staleness = %d err = %v", stale, err)
	}
	// Abort path.
	tx4 := db.Begin(Snapshot)
	tx4.Insert("notes", Record{"text": "discard"})
	tx4.Abort()
	rows, _ := db.Query("SELECT COUNT(*) AS n FROM notes")
	if rows.Data[0][0].(int64) != 1 {
		t.Errorf("aborted write leaked: %v", rows.Data)
	}
}

func TestRefreshRichnessPublic(t *testing.T) {
	db := openSample(t)
	rowsOf(t, db, "REFRESH RICHNESS")
	scores := rowsOf(t, db, "SELECT source, score FROM richness()")
	if len(scores) < 3 {
		t.Errorf("scores = %v", scores)
	}
	for _, r := range scores {
		if s := r[1].(float64); s < 0 || s > 1 {
			t.Errorf("score[%s] = %v", r[0], s)
		}
	}
}

func TestStreamSampleIncrementalER(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, src := range StreamSample(3, 60) {
		if err := db.Ingest(src); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Merges == 0 {
		t.Error("stream duplicates must merge incrementally")
	}
	if st.Entities == 0 {
		t.Error("no entities")
	}
}

func TestClinicalTrialSources(t *testing.T) {
	srcs := ClinicalTrialSources(1, 5)
	if len(srcs) != 3 {
		t.Fatalf("sources = %d", len(srcs))
	}
	db, _ := Open(Options{})
	defer db.Close()
	for _, s := range srcs {
		if err := db.Ingest(s); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Query("SELECT COUNT(*) AS n FROM \"trials-us\"")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].(int64) != 5 {
		t.Errorf("trial rows = %v", rows.Data)
	}
}

func TestMetaDataIsQueryable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Axioms: LifeSciAxioms})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range LifeSciSample(1, 0, 0, 0) {
		db.Ingest(src)
	}
	db.Close()

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// The schema is read from the stored rows, and the ontology is an
	// ordinary table.
	rows, err := db2.Query("SELECT name FROM sys.columns WHERE \"table\" = 'drugbank' ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) == 0 {
		t.Error("schema rows missing")
	}
	rows, err = db2.Query("SELECT COUNT(*) AS n FROM _catalog_ontology")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].(int64) == 0 {
		t.Error("ontology rows missing")
	}
}
