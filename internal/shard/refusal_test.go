package shard_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"scdb"
	"scdb/client"
	"scdb/internal/shard"
)

// keyOnEachShard finds a key of the given prefix on each of n shards.
func keyOnEachShard(prefix string, n int) []string {
	keys := make([]string, n)
	for i, found := 0, 0; found < n; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if s := shard.ShardOf(k, n); keys[s] == "" {
			keys[s] = k
			found++
		}
	}
	return keys
}

// shardTables reads each shard's sys.tables straight off the shard.
func shardTables(t *testing.T, addrs []string) []string {
	t.Helper()
	out := make([]string, len(addrs))
	for i, addr := range addrs {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := c.Query("SELECT name, rows FROM sys.tables ORDER BY name")
		c.Close()
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		out[i] = render(rows)
	}
	return out
}

// TestRouterRefusesBadEntityBeforeFanOut: a routed delivery with one
// entity the per-entity rule refuses — a delivered _key, or no key — is
// refused whole before any shard receives a part. No shard gains a row or a
// table, and the source still answers a routed SELECT once a good delivery
// of it lands. Before the router ran the rule, the shards owning the good
// entities kept them and the refusing shard had no table, so every routed
// read of the source failed with "unknown source".
func TestRouterRefusesBadEntityBeforeFanOut(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := context.Background()
	keys := keyOnEachShard("P", 3)
	empty := shard.ShardOf("", 3)
	cases := map[string]scdb.Source{
		"a delivered _key": {Name: "probe", Entities: []scdb.Entity{
			{Key: keys[0], Attrs: scdb.Record{"name": "zero"}},
			{Key: keys[1], Attrs: scdb.Record{"name": "one"}},
			{Key: keys[2], Attrs: scdb.Record{"name": "two", "_key": "zzz"}},
		}},
		"a keyless entity": {Name: "probe", Entities: []scdb.Entity{
			{Key: keys[(empty+1)%3], Attrs: scdb.Record{"name": "one"}},
			{Key: keys[(empty+2)%3], Attrs: scdb.Record{"name": "two"}},
			{Attrs: scdb.Record{"name": "nobody"}},
		}},
	}
	before := shardTables(t, c.shards)
	for name, src := range cases {
		if err := deliver(ctx, c.router, src); !errors.Is(err, scdb.ErrInvalidDelivery) {
			t.Errorf("%s: err = %v, want ErrInvalidDelivery", name, err)
		}
		for i, got := range shardTables(t, c.shards) {
			if got != before[i] {
				t.Errorf("%s: shard %d's tables moved\n--- now ---\n%s--- was ---\n%s", name, i, got, before[i])
			}
		}
	}
	good := scdb.Source{Name: "probe"}
	for i, k := range keys {
		good.Entities = append(good.Entities, scdb.Entity{Key: k, Attrs: scdb.Record{"name": fmt.Sprintf("n%d", i)}})
	}
	if err := deliver(ctx, c.router, good); err != nil {
		t.Fatal(err)
	}
	rows, err := c.rc.Query("SELECT name FROM probe ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(rows), "name\nn0\nn1\nn2\n"; got != want {
		t.Errorf("SELECT name FROM probe = %q, want %q", got, want)
	}
}

// TestInvalidDeliveryIsTyped: a refused delivery is ErrInvalidDelivery to
// its caller embedded, through one server and through a 3-shard router,
// whether the router refuses it itself (a delivered _key, a keyless entity)
// or relays a shard's refusal (a link from a key no shard holds).
func TestInvalidDeliveryIsTyped(t *testing.T) {
	ctx := context.Background()
	bad := map[string]scdb.Source{
		"a delivered _key":   {Name: "bad", Entities: []scdb.Entity{{Key: "k", Attrs: scdb.Record{"_key": "zzz"}}}},
		"a delivered _types": {Name: "bad", Entities: []scdb.Entity{{Key: "k", Attrs: scdb.Record{"_types": "Drug"}}}},
		"a keyless entity":   {Name: "bad", Entities: []scdb.Entity{{Attrs: scdb.Record{"name": "nobody"}}}},
		"a link from an unknown key": {Name: "bad", Entities: []scdb.Entity{{Key: "k", Attrs: scdb.Record{"name": "known"}}},
			Links: []scdb.Link{{FromKey: "ghost", Predicate: "rel", Value: "x"}}},
	}
	db, err := scdb.Open(scdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	one, err := client.Dial(startShardServer(t, scdb.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	c := newTestCluster(t, 3)
	for name, src := range bad {
		for via, ingest := range map[string]func(scdb.Source) error{
			"embedded":         func(s scdb.Source) error { return db.IngestCtx(ctx, s) },
			"one server":       one.Ingest,
			"a 3-shard router": c.rc.Ingest,
		} {
			if err := ingest(src); !errors.Is(err, scdb.ErrInvalidDelivery) {
				t.Errorf("%s %s: err = %v, want ErrInvalidDelivery", name, via, err)
			}
		}
	}
}
