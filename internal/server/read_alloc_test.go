package server_test

import (
	"context"
	"fmt"
	"testing"

	"scdb"
)

// TestNetworkReadAllocBudget is the network read allocation gate: a point
// read over a 5,000-row table through client.QueryInfoCtx to an in-process
// server, with a new key each run so the result cache misses and the plan
// cache hits the statement's shape, and a PingCSN. Both sides of the wire
// count, so this holds the client's one round trip and the server's request
// path to at most 33 objects a read and 4 a ping (go1.24/linux/amd64), a
// tenth over what they cost, rounded up. A read costs 30 objects and a
// ping 3. At commit f250f80 a read cost 38: the server bound each request
// as its sink's method value, the engine kept the streamed rows through a
// closure, a heap-moved slice and a copy of the first batch, its info and
// the server's copy of it were objects, and the client made the rows and
// the info apart. At
// commit fd1ce75 they cost 45 and 4: every request made a
// context with its timer, timer func and cancel func, a closure for its
// goroutine, a stream object and a copy of its statement. At commit
// 0dc12f0 they cost 50 and 7: every call made its call
// object, its ready channel and its decoded result, every frame its
// intern table, and the rows were boxed as they were decoded. At commit
// f130964 they cost 63 and 12: every frame read allocated its header, the
// client's every payload and every decoder were objects of their own, a
// streamed query captured three variables, and every request made a gone
// channel. A read cost 93 while the plan cache was keyed by statement
// text, so each new key planned again, and 100 at commit 0780d44, when
// every admitted request armed a queue timer as well.
func TestNetworkReadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 5,000-row table")
	}
	const rows, runs = 5000, 200
	db := openDB(t, scdb.Options{})
	tx := db.Begin(scdb.Snapshot)
	for i := 0; i < rows; i++ {
		if _, err := tx.Insert("items", scdb.Record{"k": fmt.Sprintf("it-%05d", i), "name": fmt.Sprintf("item %d", i), "qty": int64(i % 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, db, nil)
	c := dial(t, addr)
	ctx := context.Background()
	i := 0
	read := func() {
		i++
		res, info, err := c.QueryInfoCtx(ctx, fmt.Sprintf("SELECT name, qty FROM items WHERE k = 'it-%05d'", i%rows))
		if err != nil {
			t.Fatal(err)
		}
		// The first read plans the statement's shape; every later one, a
		// new key, binds it.
		if info.PlanCached != (i > 1) || info.CacheHit || len(res.Data) != 1 {
			t.Fatalf("run %d: plan cached %v, result cached %v, %d rows", i, info.PlanCached, info.CacheHit, len(res.Data))
		}
	}
	// Warm up until the point reads have built their index.
	for len(db.IndexStats()) == 0 {
		if i == 50 {
			t.Fatal("no auto-index after 50 point reads")
		}
		read()
	}
	for _, tc := range []struct {
		name           string
		run            func()
		budget, parent float64
		commit         string
	}{
		{"point read", read, 33, 38, "f250f80"},
		{"PingCSN", func() {
			if _, err := c.PingCSN(); err != nil {
				t.Fatal(err)
			}
		}, 4, 4, "fd1ce75"},
	} {
		allocs := testing.AllocsPerRun(runs, tc.run)
		t.Logf("%s: %.0f objects", tc.name, allocs)
		if allocs > tc.budget && !raceEnabled {
			t.Errorf("%s allocates %.0f objects, budget %.0f; it cost %.0f at commit %s", tc.name, allocs, tc.budget, tc.parent, tc.commit)
		}
	}
}
