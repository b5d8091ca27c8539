package shard_test

import (
	"context"
	"fmt"
	"testing"

	"scdb"
)

// TestRoutedReadAllocBudget is the routed read allocation gate: a keyed
// point read and a GROUP BY aggregate through client.QueryCtx to a
// server-fronted router over 3 in-process shards, the benchmark's router
// topology, with new literals each run so no result cache answers. Every
// side of both wires counts: the client, the router's server, the router
// and its shard clients, and the shards' servers and engines. A point read
// costs 41 objects and the aggregate 184 (go1.24/linux/amd64); the budgets
// are a tenth over, rounded up, as TestNetworkReadAllocBudget's. At commit
// f250f80 they cost 52 and 208: on every hop the server bound the request
// as its sink's method value and made the engine's info an object, every
// shard's engine kept its streamed rows through a closure, a heap-moved
// slice and a copy of the first batch and made its own info an object, the
// router made an info per statement and moved the statement's lifted
// values to the heap, and the client made the rows and the info apart. At
// commit fd1ce75 they cost 66 and 236: every request on every hop, the router's
// and each shard's, made a context with its timer, a closure for its
// goroutine, a stream object and a copy of its statement. At commit
// 0dc12f0 they cost 84 and 287: every call on every connection made its
// call object, ready channel, decoded result and intern tables, each
// shard's rows were boxed off the wire and converted back to values cell
// by cell, and the fan-out and the canonical sort made their scaffolding
// per statement. At commit a1a71e5 they cost 100 and 333: the router
// parsed every statement, rebuilt the aggregate's partial and final
// phases, and built canonical sort keys for a one-row answer. At commit
// f130964 they cost 126 and 385: every frame read allocated its header,
// the client's every payload and every decoder were objects of their own,
// a streamed query captured three variables, and every request made a gone
// channel. The assertion is off under -race, whose pool drops encoders.
func TestRoutedReadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 600-row table into 3 shards")
	}
	const rows, runs = 600, 100
	c := newTestCluster(t, 3)
	src := scdb.Source{Name: "items"}
	for i := 0; i < rows; i++ {
		src.Entities = append(src.Entities, scdb.Entity{Key: fmt.Sprintf("it-%05d", i), Attrs: scdb.Record{
			"name": fmt.Sprintf("item %d", i), "region": fmt.Sprintf("r%d", i%7), "slot": int64(i), "qty": int64(i % 100),
		}})
	}
	ctx := context.Background()
	if _, err := c.rc.IngestBatch(ctx, src, 200); err != nil {
		t.Fatal(err)
	}
	i := 0
	read := func(stmt func(i int) string, want int) func() {
		return func() {
			i++
			q := stmt(i % (rows - 50))
			res, err := c.rc.QueryCtx(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Data) != want {
				t.Fatalf("%s: %d rows, want %d", q, len(res.Data), want)
			}
		}
	}
	point := read(func(i int) string {
		return fmt.Sprintf("SELECT name, region, qty FROM items WHERE _key = 'it-%05d'", i)
	}, 1)
	agg := read(func(i int) string {
		return fmt.Sprintf("SELECT region, COUNT(*) AS n, SUM(qty) AS q FROM items WHERE slot >= %d AND slot < %d GROUP BY region", i, i+50)
	}, 7)
	// Warm up: plan both shapes everywhere and let the range reads build
	// their index.
	for range 20 {
		point()
		agg()
	}
	for _, tc := range []struct {
		name           string
		run            func()
		budget, parent float64
	}{
		{"point read", point, 46, 52},
		{"GROUP BY", agg, 203, 208},
	} {
		allocs := testing.AllocsPerRun(runs, tc.run)
		t.Logf("%s: %.0f objects", tc.name, allocs)
		if allocs > tc.budget && !raceEnabled {
			t.Errorf("%s allocates %.0f objects, budget %.0f; it cost %.0f at commit f250f80", tc.name, allocs, tc.budget, tc.parent)
		}
	}
}
