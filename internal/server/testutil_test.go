package server_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"scdb"
	"scdb/client"
	"scdb/internal/server"
)

// startServer runs a server on an ephemeral port over db and tears it
// down with the test. mut adjusts the config before start.
func startServer(t *testing.T, db *scdb.DB, mut func(*server.Config)) (*server.Server, string) {
	t.Helper()
	cfg := server.Config{Addr: "127.0.0.1:0", DB: db}
	if mut != nil {
		mut(&cfg)
	}
	srv := server.New(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, srv.Addr().String()
}

// dial connects a client and closes it with the test.
func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// lifesciOptions are the sample-corpus options the CLI uses.
func lifesciOptions() scdb.Options {
	return scdb.Options{
		Axioms:    scdb.LifeSciAxioms + scdb.PopulationAxioms,
		LinkRules: scdb.LifeSciLinkRules(),
		Patterns:  scdb.LifeSciPatterns(),
	}
}

// openDB opens an in-memory facade DB and closes it with the test.
func openDB(t *testing.T, opts scdb.Options) *scdb.DB {
	t.Helper()
	db, err := scdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// slowJoin is an O(n²) nested-loop self-join over the "big" table — the
// standing slow statement for cancellation and admission tests.
const slowJoin = "SELECT COUNT(*) AS n FROM big AS a JOIN big AS b ON a.x < b.x"

// openBig builds a DB where slowJoin runs for seconds: n rows, tiny
// morsels (fine-grained cancellation), result materialization off so
// repeated runs stay slow.
func openBig(t *testing.T, n int) *scdb.DB {
	t.Helper()
	db := openDB(t, scdb.Options{MorselSize: 16, Parallelism: 4, DisableCache: true})
	tx := db.Begin(scdb.Snapshot)
	for i := 0; i < n; i++ {
		if _, err := tx.Insert("big", scdb.Record{"x": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// render flattens a result the way the CLI does (%v per cell), making
// byte-identical comparison meaningful across transports.
func render(rows *scdb.Rows) string {
	var b strings.Builder
	b.WriteString(strings.Join(rows.Columns, "|"))
	b.WriteByte('\n')
	for _, r := range rows.Data {
		for i, v := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(&b, "%v", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// metrics reads the node's sys.metrics over the wire, name to value.
func metrics(t *testing.T, c *client.Client) map[string]float64 {
	t.Helper()
	rows, err := c.Query("SELECT name, value FROM sys.metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]float64, len(rows.Data))
	for _, r := range rows.Data {
		m[r[0].(string)] = r[1].(float64)
	}
	return m
}

// waitUntil polls cond up to d.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
