package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"scdb"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	return capture(t, &os.Stdout, fn)
}

// capture runs fn with *f redirected to a pipe and returns what fn wrote
// to it.
func capture(t *testing.T, f **os.File, fn func()) string {
	t.Helper()
	old := *f
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*f = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	fn()
	w.Close()
	*f = old
	return <-done
}

func testDB(t *testing.T) *scdb.DB {
	t.Helper()
	db, err := scdb.Open(scdb.Options{Axioms: "concept Thing"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.Ingest(scdb.Source{Name: "things", Entities: []scdb.Entity{
		{Key: "a", Types: []string{"Thing"}, Attrs: scdb.Record{"name": "alpha", "n": 1}},
		{Key: "b", Types: []string{"Thing"}, Attrs: scdb.Record{"name": "beta", "n": 2}},
	}}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRunQueryFormatsTable(t *testing.T) {
	db := testDB(t)
	out := captureStdout(t, func() {
		runQuery(db, "SELECT name, n FROM things ORDER BY n")
	})
	for _, want := range []string{"name", "alpha", "beta", "(2 rows)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Column alignment: header separator present.
	if !strings.Contains(out, "----") {
		t.Errorf("no separator:\n%s", out)
	}
	// Cache marker on the repeat run.
	out = captureStdout(t, func() {
		runQuery(db, "SELECT name, n FROM things ORDER BY n")
	})
	if !strings.Contains(out, "(materialized)") {
		t.Errorf("repeat run not marked materialized:\n%s", out)
	}
}

func TestRunQueryErrorGoesToStderr(t *testing.T) {
	db := testDB(t)
	out := captureStdout(t, func() {
		runQuery(db, "SELECT FROM nowhere")
	})
	if strings.Contains(out, "error") {
		t.Errorf("errors must not go to stdout:\n%s", out)
	}
}

// One-shot mode stops at the first failed statement and reports it, so the
// process can exit non-zero; a script diffing two topologies' output must
// not mistake an error for an empty answer.
func TestOneShotReportsFailure(t *testing.T) {
	db := testDB(t)
	var ran, ok bool
	out := captureStdout(t, func() {
		ran, ok = oneShot(db, "SELECT name FROM things ORDER BY n", []string{"SELECT FROM nowhere", "SELECT n FROM things"})
	})
	if !ran || ok {
		t.Errorf("ran, ok = %v, %v; want true, false", ran, ok)
	}
	if !strings.Contains(out, "alpha") || strings.Count(out, "rows)") != 1 {
		t.Errorf("want the first statement's answer and nothing after the failure:\n%s", out)
	}
	out = captureStdout(t, func() { ran, ok = oneShot(db, "", []string{"SELECT n FROM things"}) })
	if !ran || !ok || !strings.Contains(out, "(2 rows)") {
		t.Errorf("ran, ok = %v, %v; output:\n%s", ran, ok, out)
	}
	if ran, _ = oneShot(db, "", nil); ran {
		t.Error("no statement: the shell must start")
	}
}

// TestPrintStats: \stats prints the node's sys.metrics, the engine's
// numbers among them, a row per instrument.
func TestPrintStats(t *testing.T) {
	db := testDB(t)
	out := captureStdout(t, func() { runCommand(commands(db), `\stats`) })
	rows := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			rows[f[0]] = f[1]
		}
	}
	for name, want := range map[string]string{"engine.tables": "", "engine.entities": "2", "engine.concepts": ""} {
		if got, ok := rows[name]; !ok || want != "" && got != want {
			t.Errorf("stats row %s = %q, want %q:\n%s", name, got, want, out)
		}
	}
}

// TestShellLoop drives the one read loop through a reader: the loop's own
// \explain, \analyze and \trace, an unknown command reported on stderr, and
// \quit ending the session before the lines after it.
func TestShellLoop(t *testing.T) {
	db := testDB(t)
	in := strings.NewReader(strings.Join([]string{
		`\explain SELECT name FROM things WHERE n > 1`,
		`\analyze SELECT name FROM things`,
		`\trace SELECT name FROM things`,
		`\sources`,
		`\tables`,
		`\schema things`,
		`\nope`,
		`\stats extra`,
		`\quit`,
		`\stats`,
	}, "\n"))
	var stdout string
	stderr := capture(t, &os.Stderr, func() {
		stdout = captureStdout(t, func() { shell(in, db, "scdb shell", false) })
	})
	for _, want := range []string{"Scan things", "estimated cost:", "out=2", "(2 rows)", `"span": "request"`, "source  score", "things",
		"_catalog_ontology", "[int×2]"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "engine.tables") {
		t.Errorf("a command after \\quit ran:\n%s", stdout)
	}
	if stderr != "unknown command \\nope\nunknown command \\stats extra\n" {
		t.Errorf("stderr = %q, want the two unknown commands", stderr)
	}
	cmds := commands(db)
	b := banner("scdb shell", cmds)
	for _, c := range cmds {
		if !strings.Contains(b, c.name) {
			t.Errorf("banner %q misses %s", b, c.name)
		}
	}
}
