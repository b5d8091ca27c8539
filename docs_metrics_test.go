package scdb_test

import (
	"context"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"scdb"
	"scdb/client"
	"scdb/internal/server"
	"scdb/internal/shard"
)

// histogramSuffix is what a histogram's rows add to its name.
var histogramSuffix = regexp.MustCompile(`_(count|sum|max|mean|p50|p95|p99)$`)

// opMetric matches a per-op server instrument; OPERATIONS.md names it for
// every op as server.op.<op>.….
var opMetric = regexp.MustCompile(`^server\.op\.[a-z_]+\.`)

// TestOperationsCoversMetrics requires an OPERATIONS.md metrics-reference
// row for every instrument a served node and a router list in sys.metrics.
func TestOperationsCoversMetrics(t *testing.T) {
	ops, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	db, err := scdb.Open(scdb.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	node := serve(t, server.Config{DB: db})
	router, err := shard.Dial(shard.Config{}, node)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	for _, addr := range []string{node, serve(t, server.Config{DB: router})} {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// An ingest and a query give the per-op instruments a row.
		if err := c.Ingest(scdb.Source{Name: "feed", Entities: []scdb.Entity{{Key: "k", Attrs: scdb.Record{"name": "kelp"}}}}); err != nil {
			t.Fatal(err)
		}
		rows, err := c.Query("SELECT name FROM sys.metrics")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Data) == 0 {
			t.Fatalf("%s: sys.metrics is empty", addr)
		}
		for _, r := range rows.Data {
			name := opMetric.ReplaceAllString(histogramSuffix.ReplaceAllString(r[0].(string), ""), "server.op.<op>.")
			if !strings.Contains(string(ops), "`"+name+"`") {
				t.Errorf("metric %s is not documented in OPERATIONS.md", name)
			}
		}
	}
}

// serve runs a server on an ephemeral port until the test ends and
// returns its address.
func serve(t *testing.T, cfg server.Config) string {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv := server.New(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv.Addr().String()
}
