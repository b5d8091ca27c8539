package shard_test

import (
	"context"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"scdb"
	"scdb/client"
	"scdb/internal/shard"
)

// keyedQueries are statements a top-level _key = 'k' conjunct sends to the
// shard that owns k alone: a present key and an absent one, SELECT *,
// DISTINCT, ORDER BY (by a dropped column too) and LIMIT, a self-join on
// the key, and global aggregates over one row and over none.
var keyedQueries = []string{
	"SELECT name, price FROM pharma_a WHERE _key = 'A-03'",
	"SELECT name, price FROM pharma_a WHERE _key = 'Z-99'",
	"SELECT _key, name FROM pharma_a WHERE price > 0 AND 'A-07' = _key",
	"SELECT * FROM pharma_a WHERE _key = 'A-03'",
	"SELECT * FROM pharma_a WHERE _key = 'Z-99'",
	"SELECT DISTINCT category FROM pharma_a WHERE _key = 'A-05' AND price > 0 ORDER BY category LIMIT 1",
	"SELECT name FROM pharma_a WHERE _key = 'A-07' ORDER BY price DESC, name LIMIT 3",
	"SELECT a.name, b.price FROM pharma_a AS a JOIN pharma_a AS b ON a._key = b._key WHERE a._key = 'A-03' ORDER BY a.name",
	"SELECT COUNT(*) AS n, SUM(price) AS s, AVG(price) AS a, MIN(price) AS lo, MAX(price) AS hi FROM pharma_a WHERE _key = 'A-03'",
	"SELECT COUNT(*) AS n, SUM(price) AS s, AVG(price) AS a, MIN(price) AS lo, MAX(price) AS hi FROM pharma_a WHERE _key = 'Z-99'",
	"SELECT category, COUNT(*) AS n, SUM(price) AS s FROM pharma_a WHERE _key = 'A-05' GROUP BY category ORDER BY category",
	"SELECT drug, price FROM pharma_b WHERE _key = 'B-05'",
}

// keyOf returns the key literal of a statement's _key conjunct.
var keyOf = regexp.MustCompile(`_key = '([^']*)'|'([^']*)' = _key`)

func keyIn(t *testing.T, q string) string {
	t.Helper()
	m := keyOf.FindStringSubmatch(q)
	if m == nil {
		t.Fatalf("%s has no _key conjunct", q)
	}
	return m[1] + m[2]
}

// countingBackend counts the statements a router sends one shard.
type countingBackend struct {
	shard.Backend
	calls atomic.Int64
}

func (b *countingBackend) QueryValuesCtx(ctx context.Context, q string) (client.Values, error) {
	b.calls.Add(1)
	return b.Backend.QueryValuesCtx(ctx, q)
}

// TestKeyedReadAsksOneShard: a statement whose WHERE has a top-level
// _key = 'k' conjunct reaches the shard that owns k and no other, and so
// do its EXPLAIN and TRACE; any other condition on _key reaches every
// shard, and an unkeyed EXPLAIN shard 0 alone. The router counts the
// keyed statements, and a keyed read needs no shard but the owner.
func TestKeyedReadAsksOneShard(t *testing.T) {
	counters := make([]*countingBackend, 3)
	backends := make([]shard.Backend, 3)
	for i := range backends {
		c, err := client.Dial(startShardServer(t, scdb.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		counters[i] = &countingBackend{Backend: c}
		backends[i] = counters[i]
	}
	r, err := shard.New(shard.Config{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, src := range corpus() {
		if err := deliver(context.Background(), r, src); err != nil {
			t.Fatal(err)
		}
	}
	// A present key that shard 0 does not own, so that EXPLAIN following
	// the key is told apart from EXPLAIN answering as shard 0.
	key := ""
	for i := range drugNames {
		if k := fmt.Sprintf("A-%02d", i); shard.ShardOf(k, 3) != 0 {
			key = k
			break
		}
	}
	owner := shard.ShardOf(key, 3)
	absent := "no-such-key"

	asked := func(q string) []int {
		t.Helper()
		for _, c := range counters {
			c.calls.Store(0)
		}
		if _, _, err := r.QueryInfoCtx(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var got []int
		for i, c := range counters {
			if n := c.calls.Load(); n > 1 {
				t.Errorf("%s: shard %d asked %d times", q, i, n)
			}
			if c.calls.Load() > 0 {
				got = append(got, i)
			}
		}
		return got
	}
	keyed := []struct {
		q     string
		owner int
	}{
		{"SELECT name, price FROM pharma_a WHERE _key = '" + key + "'", owner},
		{"SELECT name FROM pharma_a WHERE price > 0 AND '" + key + "' = _key AND category != 'none'", owner},
		{"SELECT a.name, b.price FROM pharma_a AS a JOIN pharma_a AS b ON a._key = b._key WHERE a._key = '" + key + "'", owner},
		{"SELECT COUNT(*) AS n, SUM(price) AS s, AVG(price) AS a, MIN(price) AS lo, MAX(price) AS hi FROM pharma_a WHERE _key = '" + key + "'", owner},
		{"SELECT category, COUNT(*) AS n FROM pharma_a WHERE _key = '" + key + "' GROUP BY category", owner},
		{"SELECT name FROM pharma_a WHERE _key = '" + absent + "'", shard.ShardOf(absent, 3)},
	}
	for _, tc := range keyed {
		if got := asked(tc.q); !slices.Equal(got, []int{tc.owner}) {
			t.Errorf("%s asked shards %v, want only its key's owner %d", tc.q, got, tc.owner)
		}
	}
	for _, q := range []string{
		"SELECT name FROM pharma_a WHERE _key = '" + key + "' OR price > 50",
		"SELECT name FROM pharma_a WHERE NOT (_key = '" + key + "')",
		"SELECT name FROM pharma_a WHERE _key IN ('" + key + "')",
		"SELECT name FROM pharma_a WHERE _key = 42",
		"SELECT name FROM pharma_a WHERE _key != '" + key + "'",
		"SELECT a.name FROM pharma_a AS a JOIN pharma_a AS b ON a._key = b._key AND b._key = '" + key + "'",
	} {
		if got := asked(q); !slices.Equal(got, []int{0, 1, 2}) {
			t.Errorf("%s asked shards %v, want all three", q, got)
		}
	}
	for _, tc := range []struct {
		q     string
		owner int
	}{
		{"EXPLAIN " + keyed[0].q, owner},
		{"TRACE " + keyed[0].q, owner},
		{"EXPLAIN SELECT name FROM pharma_a WHERE price > 50", 0},
		{"TRACE SELECT name FROM pharma_a WHERE price > 50", 0},
	} {
		if got := asked(tc.q); !slices.Equal(got, []int{tc.owner}) {
			t.Errorf("%s asked shards %v, want only shard %d", tc.q, got, tc.owner)
		}
	}

	rows, _, err := r.QueryInfoCtx(context.Background(), "SELECT value FROM sys.metrics WHERE name = 'shard.keyed_queries_total'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0] != float64(len(keyed)) {
		t.Errorf("shard.keyed_queries_total = %v, want %d", rows.Data, len(keyed))
	}

	// A shard that does not own the key is down: the keyed read still
	// answers, and a scatter fails naming that shard.
	down := (owner + 1) % 3
	counters[down].Close()
	if rows, _, err := r.QueryInfoCtx(context.Background(), keyed[0].q); err != nil || len(rows.Data) != 1 {
		t.Errorf("keyed read with shard %d down: %v rows, err %v; want its one row", down, rows, err)
	}
	if _, _, err := r.QueryInfoCtx(context.Background(), "SELECT name FROM pharma_a"); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("shard %d ", down)) {
		t.Errorf("scatter with shard %d down: err = %v, want it to name the shard", down, err)
	}
}
