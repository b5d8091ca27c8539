package scdb

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"scdb/internal/model"
)

// TestReadAllocBudget is the read allocation gate: three of the standing
// benchmark's read statements through QueryInfoCtx on its 20,000-row items
// corpus, their select lists reordered so that no warm-up statement shares
// their shape. A plan miss gives each run a new select alias, so its shape
// is new: the statement is lexed, parsed, optimized and executed, and the
// result cache misses. A plain statement renders no plan, rule log or
// operator-stats text, the lexer copies no word, a GROUP BY keeps its groups
// in slabs, and a read of one morsel runs on the caller's goroutine (its
// scan a cursor, no stage starting workers), and the answer's rows and info
// are one object, so a point read costs at most 64 objects (58 on
// go1.24/linux/amd64), a 100-row range over slot at most 74 (67) and a
// GROUP BY region over 10,000 rows at most 240 (218); they cost 62, 71 and
// 222 at commit f250f80, whose engine moved each statement's streamed-row
// slice to the heap and made its info an object, as the facade did its
// info apart from its rows, and 63, 81 and 232 while the optimizer
// flattened every AND level into a fresh slice. A plan hit gives each run
// a new key or bound under one alias: the shape's plan is cached, so the
// run lexes the text once, binds its literals and executes, at most 29, 31
// and 175 objects (26, 28 and 159; 30, 32 and 163 at commit f250f80; 31,
// 33 and 164 while each scan copied its conjuncts into a storage type of
// their own). While the plan cache was keyed by statement text, each new
// literal was a new entry, and the same runs cost the full miss, 63, 81
// and 232. A point read under a planned shape through QueryBatchesCtx, the
// engine's streamed path a server drives, its rows handed to a sink that
// keeps none, costs at most 21 objects (19); it cost 25 at commit f250f80,
// whose engine kept the streamed rows through a closure, a heap-moved
// slice and a copy of the first batch, and made its info an object twice.
func TestReadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 20,000-row corpus")
	}
	const rows, runs = 20000, 50
	db := benchReadMixDB(t, rand.New(rand.NewSource(1)), rows)
	ctx := context.Background()
	for _, c := range []struct {
		name      string
		stmt      func(alias, i int) string
		miss, hit float64 // budgets
		parent    float64 // what a hit run cost while plans were keyed by text
	}{
		{"point read", func(alias, i int) string {
			return fmt.Sprintf("SELECT name AS n%d, region, qty, price FROM items WHERE _key = 'it-%07d'", alias, i)
		}, 64, 29, 63},
		{"100-row range", func(alias, i int) string {
			return fmt.Sprintf("SELECT slot AS s%d, price, _key FROM items WHERE slot >= %d AND slot < %d", alias, i, i+100)
		}, 74, 31, 81},
		{"GROUP BY region", func(alias, i int) string {
			return fmt.Sprintf("SELECT region AS r%d, COUNT(*) AS n, SUM(qty) AS q, MAX(price) AS hi, MIN(price) AS lo FROM items WHERE slot >= %d AND slot < %d GROUP BY region", alias, i, i+rows/2)
		}, 240, 175, 232},
	} {
		i := 0
		// A miss run's alias is its number; every hit run's is 0.
		run := func(kind string, planCached bool) {
			i++
			alias := i
			if kind == "hit" {
				alias = 0
			}
			res, info, err := db.QueryInfoCtx(ctx, c.stmt(alias, i))
			if err != nil {
				t.Fatal(err)
			}
			if info.PlanCached != planCached || info.CacheHit || len(res.Data) == 0 {
				t.Fatalf("%s %s: run %d plan cached %v, result cached %v, %d rows", c.name, kind, i, info.PlanCached, info.CacheHit, len(res.Data))
			}
		}
		miss := testing.AllocsPerRun(runs, func() { run("miss", false) })
		run("hit", false) // plans the hit runs' shape
		hit := testing.AllocsPerRun(runs, func() { run("hit", true) })
		t.Logf("%s: plan miss %.0f objects, plan hit %.0f", c.name, miss, hit)
		if miss > c.miss {
			t.Errorf("%s plan miss allocates %.0f objects, budget %.0f", c.name, miss, c.miss)
		}
		if hit > c.hit {
			t.Errorf("%s plan hit allocates %.0f objects, budget %.0f; it cost the full miss, %.0f, while plans were keyed by text", c.name, hit, c.hit, c.parent)
		}
	}
	// The streamed path on its own: a plan-hit point read through
	// QueryBatchesCtx into a sink that counts the rows.
	sink := &countSink{}
	i := 0
	point := func() {
		i++
		sink.rows = 0
		_, info, err := db.QueryBatchesCtx(ctx, fmt.Sprintf("SELECT name AS b, region, qty, price FROM items WHERE _key = 'it-%07d'", i), sink)
		if err != nil {
			t.Fatal(err)
		}
		if info.PlanCached != (i > 1) || info.CacheHit || sink.rows != 1 {
			t.Fatalf("streamed point read: run %d plan cached %v, result cached %v, %d rows", i, info.PlanCached, info.CacheHit, sink.rows)
		}
	}
	point() // plans the shape
	streamed := testing.AllocsPerRun(runs, point)
	t.Logf("streamed point read: plan hit %.0f objects", streamed)
	if streamed > 21 {
		t.Errorf("streamed point read allocates %.0f objects, budget 21; it cost 25 at commit f250f80", streamed)
	}
}

// countSink counts the rows handed to it and keeps none.
type countSink struct{ rows int }

func (s *countSink) EmitBatch(_ []string, batch [][]model.Value) bool {
	s.rows += len(batch)
	return true
}
