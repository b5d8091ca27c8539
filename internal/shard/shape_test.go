package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"testing"

	"scdb"
	"scdb/client"
	"scdb/internal/query"
	"scdb/internal/shard"
)

// itemsSource is ten rows, keys k0…k9, whose slot is their index.
func itemsSource() scdb.Source {
	src := scdb.Source{Name: "items"}
	for i := 0; i < 10; i++ {
		src.Entities = append(src.Entities, scdb.Entity{Key: fmt.Sprintf("k%d", i), Attrs: scdb.Record{
			"name": fmt.Sprintf("item %d", i), "region": fmt.Sprintf("r%d", i%3), "slot": int64(i),
		}})
	}
	return src
}

// shapeTopology is a router that keeps its decompositions across
// statements and a way to build a fresh one over the same shards.
type shapeTopology struct {
	name   string
	router *shard.Router
	fresh  func() *shard.Router
}

func newShapeTopology(t *testing.T, n int) shapeTopology {
	t.Helper()
	c := newTestCluster(t, n)
	for _, src := range append(corpus(), itemsSource()) {
		if _, err := c.rc.IngestBatch(context.Background(), src, 5); err != nil {
			t.Fatal(err)
		}
	}
	backends := make([]shard.Backend, n)
	for i, addr := range c.shards {
		cl, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		backends[i] = cl
	}
	// A fresh router shares the backends, so it is never closed itself.
	fresh := func() *shard.Router {
		r, err := shard.New(shard.Config{Backends: backends, Addrs: c.shards})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	return shapeTopology{name: fmt.Sprintf("%d shards", n), router: fresh(), fresh: fresh}
}

// answerOf renders a routed or embedded answer, or its error.
func answerOf(rows *scdb.Rows, err error, sorted bool) string {
	switch {
	case err != nil:
		return "error: " + err.Error()
	case sorted:
		return sortedLines(rows)
	}
	return render(rows)
}

// routerCounters reads the router's shape-cache counters through its own
// sys.metrics; they count the read's own probe.
func routerCounters(t *testing.T, r *shard.Router) (hits, misses float64) {
	t.Helper()
	rows, _, err := r.QueryInfoCtx(context.Background(), "SELECT name, value FROM sys.metrics WHERE name LIKE 'shard.plan_cache%'")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows.Data {
		switch row[0] {
		case "shard.plan_cache_hits_total":
			hits = row[1].(float64)
		case "shard.plan_cache_misses_total":
			misses = row[1].(float64)
		}
	}
	return hits, misses
}

// probes runs f and returns the shape-cache hits and misses it counted on
// r. The second counter read is a hit: the first cached its shape.
func probes(t *testing.T, r *shard.Router, f func()) (hits, misses float64) {
	t.Helper()
	h0, m0 := routerCounters(t, r)
	f()
	h1, m1 := routerCounters(t, r)
	return h1 - h0 - 1, m1 - m0
}

// liftedLiteral matches a comparison literal the shape key lifts in the
// generated statements: a string or number right after name OP.
var liftedLiteral = regexp.MustCompile(`(\w+) (=|!=|<=|>=|<|>) ('[^']*'|[0-9]+)`)

// freshLiterals rewrites each lifted literal of q to another value of its
// kind, so the text keeps q's shape.
func freshLiterals(r *rand.Rand, q string) string {
	return liftedLiteral.ReplaceAllStringFunc(q, func(m string) string {
		sub := liftedLiteral.FindStringSubmatch(m)
		col, op, lit := sub[1], sub[2], sub[3]
		switch {
		case col == "_key":
			lit = fmt.Sprintf("'A-%02d'", r.Intn(len(drugNames)+2))
		case strings.HasPrefix(lit, "'"):
			lit = fmt.Sprintf("'cat%d'", r.Intn(4))
		default:
			lit = fmt.Sprint(r.Intn(80))
		}
		return col + " " + op + " " + lit
	})
}

// TestRoutedShapeDifferential: a router decomposes each statement shape
// once and answers every text of the shape with that text's values. Each
// statement runs cold, warm and warm with fresh literals; every answer or
// error is byte-identical to a fresh router's and agrees with the embedded
// engine's, on 1 shard and on 3. A shape whose decomposition matched a
// group expression by value, not by slot, is never cached: the GROUP BY
// pair below shares a shape, and the second is refused in either order.
// The router's sys.metrics count one miss per cached shape, then hits.
func TestRoutedShapeDifferential(t *testing.T) {
	db, err := scdb.Open(scdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, src := range append(corpus(), itemsSource()) {
		if err := db.IngestCtx(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, topo := range []shapeTopology{newShapeTopology(t, 1), newShapeTopology(t, 3)} {
		t.Run(topo.name, func(t *testing.T) {
			r := topo.router
			// runs answers q on r and on a fresh router, which must agree
			// byte for byte, and on the embedded engine when embedded, which
			// must fail alike and answer alike.
			runs := func(q string, embedded bool) string {
				t.Helper()
				rows, _, err := r.QueryInfoCtx(ctx, q)
				sorted := err == nil && !strings.Contains(q, "ORDER BY")
				got := answerOf(rows, err, sorted)
				frows, _, ferr := topo.fresh().QueryInfoCtx(ctx, q)
				if fresh := answerOf(frows, ferr, sorted); got != fresh {
					t.Errorf("%s: the warm router answers\n%s\na fresh router\n%s", q, got, fresh)
				}
				if embedded {
					erows, eerr := db.Query(q)
					if (err == nil) != (eerr == nil) {
						t.Errorf("%s: router error %v, embedded error %v", q, err, eerr)
					} else if emb := answerOf(erows, eerr, sorted); err == nil && emb != got {
						t.Errorf("%s: the router answers\n%s\nthe embedded engine\n%s", q, got, emb)
					}
				}
				return got
			}
			// The GROUP BY pair shares a shape; the first matches its item
			// to its group by value only, so neither text is cached.
			const agree = "SELECT slot > 5 AS b, COUNT(*) AS n FROM items GROUP BY slot > 5"
			const differ = "SELECT slot > 7 AS b, COUNT(*) AS n FROM items GROUP BY slot > 3"
			for _, order := range [][]string{{agree, differ}, {differ, agree}} {
				rt := topo.fresh()
				h, m := probes(t, rt, func() {
					for _, q := range append(order, order...) {
						rows, _, err := rt.QueryInfoCtx(ctx, q)
						if q == differ {
							if !errors.Is(err, shard.ErrNotRoutable) {
								t.Errorf("%s after %s: %v, want ErrNotRoutable", q, order[0], err)
							}
							continue
						}
						if err != nil || fmt.Sprint(rows.Data) != "[[false 6] [true 4]]" {
							t.Errorf("%s after %s: %v %v, want [[false 6] [true 4]]", q, order[0], rows, err)
						}
					}
				})
				if h != 0 || m != 4 {
					t.Errorf("%s then %s, twice: %v hits and %v misses; want every statement a miss", order[0], order[1], h, m)
				}
			}

			keyed := func() float64 {
				rows, _, err := r.QueryInfoCtx(ctx, "SELECT value FROM sys.metrics WHERE name = 'shard.keyed_queries_total'")
				if err != nil {
					t.Fatal(err)
				}
				return rows.Data[0][0].(float64)
			}
			keyed() // caches the read's shape
			for _, tc := range []struct {
				cold, fresh string
				embedded    bool
				keyed       bool
			}{
				{"SELECT name FROM items WHERE _key = 'k3'", "SELECT name FROM items WHERE _key = 'k7'", true, true},
				{"SELECT name FROM items WHERE _key = 3", "SELECT name FROM items WHERE _key = 7", true, false},
				{"SELECT region, COUNT(*) AS n FROM items GROUP BY region HAVING region = 'r1' ORDER BY region",
					"SELECT region, COUNT(*) AS n FROM items GROUP BY region HAVING region = 'r2' ORDER BY region", true, false},
				{"SELECT name FROM items WHERE slot > 2 ORDER BY slot DESC", "SELECT name FROM items WHERE slot > 6 ORDER BY slot DESC", true, false},
				{"SELECT name FROM items WHERE slot >= 1 ORDER BY slot LIMIT 3", "SELECT name FROM items WHERE slot >= 4 ORDER BY slot LIMIT 3", true, false},
				{"SELECT * FROM items WHERE slot < 4", "SELECT * FROM items WHERE slot < 8", true, false},
				{"SELECT name FROM sys.metrics WHERE name = 'router.shards'", "SELECT name FROM sys.metrics WHERE name = 'shard.partial_rows_total'", false, false},
			} {
				k0 := keyed()
				h, m := probes(t, r, func() {
					cold := runs(tc.cold, tc.embedded)
					if strings.HasPrefix(cold, "error: ") {
						t.Errorf("%s: %s", tc.cold, cold)
					}
					if runs(tc.cold, tc.embedded) != cold {
						t.Errorf("%s: a warm run answers unlike the cold one", tc.cold)
					}
					runs(tc.fresh, tc.embedded)
				})
				if h != 2 || m != 1 {
					t.Errorf("%s cold, warm and with fresh literals: %v hits and %v misses, want 2 and 1", tc.cold, h, m)
				}
				want := 0.0
				if tc.keyed {
					want = 3
				}
				if k := keyed() - k0; k != want {
					t.Errorf("%s: %v keyed statements of 3, want %v", tc.cold, k, want)
				}
			}

			// Texts of cached shapes, from several goroutines at once,
			// against the embedded engine's answers.
			want := map[string]string{}
			var texts []string
			for i := 0; i < 10; i++ {
				for _, q := range []string{
					fmt.Sprintf("SELECT name FROM items WHERE _key = 'k%d'", i),
					fmt.Sprintf("SELECT region, COUNT(*) AS n FROM items GROUP BY region HAVING region = 'r%d' ORDER BY region", i%4),
					fmt.Sprintf("SELECT name FROM items WHERE slot >= %d ORDER BY slot LIMIT 3", i),
				} {
					rows, err := db.Query(q)
					want[q] = answerOf(rows, err, false)
					texts = append(texts, q)
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range texts {
						q := texts[(i+7*w)%len(texts)]
						rows, _, err := r.QueryInfoCtx(ctx, q)
						if got := answerOf(rows, err, false); got != want[q] {
							t.Errorf("%s, concurrently: the router answers\n%s\nthe embedded engine\n%s", q, got, want[q])
						}
					}
				}()
			}
			wg.Wait()

			// EXPLAIN and TRACE lift nothing: each text is its own shape,
			// answered by the key's owner.
			for _, q := range []string{
				"EXPLAIN SELECT name FROM items WHERE _key = 'k3'",
				"EXPLAIN SELECT name FROM items WHERE _key = 'k7'",
			} {
				runs(q, false)
				runs(q, false)
			}
			for _, q := range []string{
				"TRACE SELECT name FROM items WHERE _key = 'k3'",
				"TRACE SELECT name FROM items WHERE _key = 'k7'",
			} {
				for range 2 {
					rows, _, err := r.QueryInfoCtx(ctx, q)
					if err != nil || len(rows.Data) == 0 {
						t.Errorf("%s: %v %v", q, rows, err)
					}
				}
			}

			// The cluster differential's statements: cold, warm, and warm
			// with fresh literals of the same shape.
			g := stmtGen{rand.New(rand.NewSource(1))}
			lits := rand.New(rand.NewSource(2))
			for i := 0; i < 300; i++ {
				q := g.stmt()
				fresh := freshLiterals(lits, q)
				k, _, err := query.AppendShape(nil, nil, q)
				if err != nil {
					t.Fatal(err)
				}
				fk, _, _ := query.AppendShape(nil, nil, fresh)
				if string(k) != string(fk) {
					t.Fatalf("%s and %s have different shapes", q, fresh)
				}
				runs(q, true)
				runs(q, true)
				runs(fresh, true)
			}
		})
	}
}
