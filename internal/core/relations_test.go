package core

import (
	"strings"
	"testing"

	"scdb/internal/datagen"
	"scdb/internal/model"
)

// openWarfarinClaims is the life-science corpus plus the paper's three
// population-scoped dose claims on Warfarin, the populations disjoint.
func openWarfarinClaims(t *testing.T) *DB {
	t.Helper()
	db := openLifeSci(t)
	mustQuery(t, db, "ADD AXIOMS 'sub White Population', 'sub Asian Population', 'sub Black Population', "+
		"'disjoint White Asian', 'disjoint White Black', 'disjoint Asian Black'")
	mustQuery(t, db, doseClaims)
	return db
}

// TestFunctionErrors: a call the engine does not serve, or serves with
// other arguments, is the statement's error — planned or explained — and
// never a panic. A well-formed call naming an unknown entity, policy or
// attribute fails when its rows are built, so only its execution errs.
func TestFunctionErrors(t *testing.T) {
	db := openWarfarinClaims(t)
	for _, c := range []struct {
		q, want string
		planned bool // EXPLAIN fails too
	}{
		{"SELECT * FROM nosuch()", "unknown function nosuch()", true},
		{"SELECT * FROM claims()", "unknown function claims()", true},
		{"SELECT * FROM witnesses(1)", "witnesses() takes 0 arguments, got 1", true},
		{"SELECT * FROM resolve('Warfarin', 'dose')", "resolve(entity, attr, policy) takes 3 arguments, got 2", true},
		{"SELECT * FROM worlds('Warfarin')", "worlds(entity, attr) takes 2 arguments, got 1", true},
		{"SELECT * FROM worlds('Warfarin', 5)", "argument attr must be text", true},
		{"SELECT * FROM justify('Warfarin', 'dose', 'five', 0.5)", "argument target must be a number", true},
		{"SELECT * FROM discover('Warfarin', 2.5, 1)", "argument steps must be an integer", true},
		{"SELECT * FROM discover(7, 3, 1)", "argument entity must be text", true},
		{"SELECT * FROM suggest_links(NULL, 'targets', 3)", "argument entity must be text", true},
		{"SELECT * FROM drugbank AS d JOIN crowd('Warfarin') AS c ON d.name = c.value", "crowd(entity, attr, budget, accuracy, seed) takes 5 arguments", true},
		{"SELECT * FROM justify('Nonexistium', 'dose', 5.0, 0.5)", `unknown entity "Nonexistium"`, false},
		{"SELECT * FROM discover('Nonexistium', 3, 1)", `unknown entity "Nonexistium"`, false},
		{"SELECT * FROM discover('Warfarin', 1000000000000, 1)", "walks at most 65536 steps", false},
		{"SELECT * FROM resolve('Warfarin', 'dose', 'tally')", "policy must be 'vote', 'richness' or 'confident'", false},
		{"SELECT * FROM resolve('Warfarin', 'weight', 'vote')", "no claims", false},
		{"SELECT * FROM crowd('Warfarin', 'weight', 10, 0.9, 1)", "no claims", false},
		{"SELECT * FROM worlds('Warfarin', 'weight')", "no claims", false},
		{"SELECT * FROM worlds('Nonexistium', 'dose')", `unknown entity "Nonexistium"`, false},
	} {
		_, _, err := db.Query(c.q)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.q, err, c.want)
		}
		if _, err := explain(db, c.q); (err != nil) != c.planned {
			t.Errorf("EXPLAIN %s: err = %v, want an error: %v", c.q, err, c.planned)
		}
	}
}

// TestFunctionNeverShadowsSource: a call is always a function and a bare
// name always a table or concept, even where the two share a name.
func TestFunctionNeverShadowsSource(t *testing.T) {
	db := openLifeSci(t)
	if err := db.Ingest(datagen.Dataset{Source: "witnesses", Entities: []datagen.EntitySpec{
		{Key: "w1", Attrs: model.Record{"name": model.String("a witness statement")}},
	}}); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.Query("SELECT name FROM witnesses")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !model.Equal(res.Rows[0][0], model.String("a witness statement")) {
		t.Errorf("FROM witnesses = %v, want the table's row", res.Rows)
	}
	res, _, err = db.Query("SELECT entity, role, filler FROM witnesses()")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Columns) != 3 {
		t.Errorf("FROM witnesses() = %v %v, want the reasoner's witnesses", res.Columns, res.Rows)
	}
}

// TestFunctionPlans: a call plans as a scan naming its arguments, a filter
// over it stays a filter (a function has no access path), and claims plans
// as before.
func TestFunctionPlans(t *testing.T) {
	db := openWarfarinClaims(t)
	info, err := explain(db, "SELECT value FROM resolve('Warfarin', 'dose', 'vote') AS r WHERE support > 0.1")
	if err != nil {
		t.Fatal(err)
	}
	want := "Project value\n  Filter (support > 0.1)\n    Scan resolve('Warfarin', 'dose', 'vote') AS r\n"
	if info.Plan != want {
		t.Errorf("plan:\n%s\nwant:\n%s", info.Plan, want)
	}
	info, err = explain(db, "SELECT value FROM claims WHERE attr = 'dose'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info.Plan, "IndexScan claims AS claims ON (attr = 'dose')") {
		t.Errorf("claims plan:\n%s", info.Plan)
	}
}

// TestFunctionArgumentsKeyTheCaches: two calls that differ only in an
// argument are two statements to the plan and result caches.
func TestFunctionArgumentsKeyTheCaches(t *testing.T) {
	db := openWarfarinClaims(t)
	answers := map[string]string{}
	for run := 0; run < 2; run++ {
		for _, target := range []string{"5.0", "3.4"} {
			res, info, err := db.Query("SELECT degree FROM justify('Warfarin', 'dose', " + target + ", 0.5) LIMIT 1")
			if err != nil {
				t.Fatal(err)
			}
			got := res.Rows[0][0].String()
			if run == 1 && got != answers[target] {
				t.Errorf("target %s answered %s, then %s", target, answers[target], got)
			}
			answers[target] = got
			if info.CacheHit != (run == 1) {
				t.Errorf("target %s run %d: cache hit %v", target, run, info.CacheHit)
			}
		}
	}
	if answers["5.0"] == answers["3.4"] {
		t.Errorf("targets 5.0 and 3.4 answered alike: %v", answers)
	}
}
