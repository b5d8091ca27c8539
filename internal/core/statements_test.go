package core

import (
	"errors"
	"strings"
	"testing"

	"scdb/internal/catalog"
	"scdb/internal/model"
)

// ontologyRows counts the catalog's stored axioms.
func ontologyRows(t *testing.T, db *DB) int {
	t.Helper()
	tb, ok := db.store.Table(catalog.OntologyTable)
	if !ok {
		t.Fatal("no ontology table")
	}
	return tb.Len()
}

// TestAddAxiomsIsAtomic: a line that does not parse fails the statement
// before anything changes; lines already stored are not stored again.
func TestAddAxiomsIsAtomic(t *testing.T) {
	db := openLifeSci(t)
	version, rows := db.onto.Version(), ontologyRows(t, db)
	if _, _, err := db.Query("ADD AXIOMS 'concept ProbeThing', 'sub Drug ProbeThing', 'sub Drug'"); err == nil || !strings.Contains(err.Error(), "cannot parse") {
		t.Fatalf("bad third line: err = %v", err)
	}
	if db.onto.Version() != version || ontologyRows(t, db) != rows || db.onto.HasConcept("ProbeThing") {
		t.Errorf("a failed ADD AXIOMS changed the ontology: version %d → %d, rows %d → %d", version, db.onto.Version(), rows, ontologyRows(t, db))
	}
	res := mustQuery(t, db, "ADD AXIOMS 'concept ProbeThing', 'sub  Drug   ProbeThing'")
	if !model.Equal(res.Rows[0][0], model.Int(2)) || ontologyRows(t, db) != rows+2 || !db.onto.Subsumes("ProbeThing", "Drug") {
		t.Fatalf("ADD AXIOMS answered %v, rows %d → %d", res.Rows, rows, ontologyRows(t, db))
	}
	version = db.onto.Version()
	res = mustQuery(t, db, "ADD AXIOMS 'sub Drug ProbeThing', 'sub Drug Chemical'")
	if !model.Equal(res.Rows[0][0], model.Int(0)) || db.onto.Version() != version {
		t.Errorf("known axioms: answered %v, version %d → %d", res.Rows, version, db.onto.Version())
	}
}

// TestInsertClaimsIsAtomic: every row is checked and its entity resolved
// before any row is written, so one bad row writes nothing.
func TestInsertClaimsIsAtomic(t *testing.T) {
	db := openLifeSci(t)
	for _, c := range []struct{ q, want string }{
		{"INSERT INTO claims (entity, attr, value, source) VALUES ('Warfarin', 'dose', 5.1, 'a'), ('Nonexistium', 'dose', 3.4, 'b')", `unknown entity "Nonexistium"`},
		{"INSERT INTO claims (entity, attr, value, source, justification) VALUES ('Warfarin', 'dose', 5.1, 'a', 1)", "at most once, not justification"},
		{"INSERT INTO claims (entity, attr, value, source, attr) VALUES ('Warfarin', 'dose', 5.1, 'a', 'b')", "at most once, not attr"},
		{"INSERT INTO claims (entity, attr, value) VALUES ('Warfarin', 'dose', 5.1)", "needs column source"},
		{"INSERT INTO claims (entity, attr, value, source) VALUES ('Warfarin', 7, 5.1, 'a')", "claim attr must be text"},
		{"INSERT INTO claims (entity, attr, value, source, confidence) VALUES ('Warfarin', 'dose', 5.1, 'a', 1.5)", "confidence must be a number in (0, 1]"},
		{"INSERT INTO drugbank (name) VALUES ('Aspirin')", "only claims takes rows"},
	} {
		if _, _, err := db.Query(c.q); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.q, err, c.want)
		}
	}
	if _, ok := db.store.Table(claimsTable); ok || len(db.worlds.Claims()) != 0 {
		t.Fatalf("a failed INSERT wrote claims: %v", db.worlds.Claims())
	}
	res := mustQuery(t, db, "INSERT INTO claims (confidence, context, source, value, attr, entity) VALUES (0.5, 'White+Adult', 'a', 5.1, 'dose', 'warfarin')")
	if !model.Equal(res.Rows[0][0], model.Int(1)) {
		t.Errorf("INSERT answered %v", res.Rows)
	}
	res = mustQuery(t, db, "SELECT attr, value, source, context, confidence FROM claims")
	if got := renderRows(res); got != `attr|value|source|context|confidence
"dose"|5.1|"a"|"White+Adult"|0.5
` {
		t.Errorf("claims read back:\n%s", got)
	}
}

// TestCurationStatementsBypassTheCaches: a statement is never answered
// from the result or plan cache, and a cached answer it changes is
// dropped.
func TestCurationStatementsBypassTheCaches(t *testing.T) {
	db := openLifeSci(t)
	const count = "SELECT COUNT(*) AS n FROM claims"
	mustQuery(t, db, count)
	const insert = "INSERT INTO claims (entity, attr, value, source) VALUES ('Warfarin', 'dose', 5.1, 'a')"
	for i := 1; i <= 2; i++ {
		_, info, err := db.Query(insert)
		if err != nil || info.CacheHit || info.PlanCached {
			t.Fatalf("INSERT %d: info %+v, err %v", i, info, err)
		}
		res, info, _ := db.Query(count)
		if info.CacheHit || !model.Equal(res.Rows[0][0], model.Int(int64(i))) {
			t.Errorf("after INSERT %d: count %v, cache hit %v", i, res.Rows, info.CacheHit)
		}
	}
}

// TestReadOnlyRefusesStatements: a replica is told nothing; it learns
// from its primary's log.
func TestReadOnlyRefusesStatements(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(lifesciOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	opts := lifesciOptions(dir)
	opts.ReadOnly = true
	ro, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	for _, q := range []string{doseClaims, "ADD AXIOMS 'concept ProbeThing'", "REFRESH RICHNESS"} {
		if _, _, err := ro.Query(q); !errors.Is(err, ErrReadOnly) {
			t.Errorf("%.20s on a replica: err = %v, want ErrReadOnly", q, err)
		}
	}
}
