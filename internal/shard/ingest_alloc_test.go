package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"scdb"
	"scdb/client"
)

// mentionStream builds deliveries shaped like the standing benchmark's
// ingest stream: four feeds in turn, each entity a three-word name and a
// four-letter city, and about 30 % of a delivery re-mentioning an entity
// another feed delivered earlier, with one word dropped.
func mentionStream(seed int64, n, per int) []scdb.Source {
	rng := rand.New(rand.NewSource(seed))
	word := func(l int) string {
		b := make([]byte, l)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	vocab := make([]string, 20000)
	for i := range vocab {
		vocab[i] = word(5 + rng.Intn(6))
	}
	cities := make([]string, 40)
	for i := range cities {
		cities[i] = word(4)
	}
	type mention struct {
		feed       int
		name, city string
	}
	feeds := [...]string{"feed_a", "feed_b", "feed_c", "feed_d"}
	var pool []mention
	serial := make([]int, len(feeds))
	out := make([]scdb.Source, 0, n)
	for d := 0; d < n; d++ {
		feed := d % len(feeds)
		src := scdb.Source{Name: feeds[feed], Entities: make([]scdb.Entity, 0, per)}
		for e := 0; e < per; e++ {
			var m mention
			if i := rng.Intn(max(len(pool), 1)); len(pool) > 0 && pool[i].feed != feed && rng.Float64() < 0.3 {
				m = pool[i]
				m.name = m.name[strings.IndexByte(m.name, ' ')+1:]
			} else {
				m = mention{feed: feed, city: cities[rng.Intn(len(cities))],
					name: strings.Join([]string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]}, " ")}
				pool = append(pool, m)
			}
			serial[feed]++
			src.Entities = append(src.Entities, scdb.Entity{
				Key:   fmt.Sprintf("%s-%06d", feeds[feed][5:], serial[feed]),
				Attrs: scdb.Record{"name": m.name, "city": m.city},
			})
		}
		out = append(out, src)
	}
	return out
}

// TestWireDeliveryAllocBudget is the wire ingest allocation gate: one
// 200-entity delivery through client.IngestBatch to one durable server and
// to a server-fronted router over 3 durable shards, the benchmark's two
// ingest topologies, after a warm-up that gives the resolvers blocks worth
// searching. Every side of every wire counts. A chunk decodes straight
// into the rows the delivery owns (server.DecodeV2Arrivals), and the
// router forwards each shard its part from those rows, so no entity
// becomes a public record on the way: a delivery costs 687 objects through
// one server and 1,284 through the router (go1.24/linux/amd64), and the
// budgets are a tenth over, rounded up. At commit d8ff1ee, when each chunk
// decoded into public records that the facade converted back, the same
// deliveries cost 1,090 and 1,695. The assertion is off under -race,
// whose pool drops encoders.
func TestWireDeliveryAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 49 deliveries of 200 entities twice")
	}
	const per, warm, runs = 200, 40, 8
	durable := func() scdb.Options { return scdb.Options{Dir: t.TempDir(), Sync: scdb.SyncGroup} }
	one, err := client.Dial(startShardServer(t, durable()))
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	routed := newClusterOf(t, 3, durable).rc
	ctx := context.Background()
	for _, tc := range []struct {
		name           string
		c              *client.Client
		budget, parent float64
	}{
		{"one server", one, 760, 1090},
		{"3-shard router", routed, 1420, 1695},
	} {
		stream := mentionStream(7, warm+runs+1, per)
		for _, src := range stream[:warm] {
			if _, err := tc.c.IngestBatch(ctx, src, 0); err != nil {
				t.Fatal(err)
			}
		}
		next := warm
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := tc.c.IngestBatch(ctx, stream[next], 0); err != nil {
				t.Fatal(err)
			}
			next++
		})
		t.Logf("%s: one %d-entity delivery allocates %.0f objects", tc.name, per, allocs)
		if allocs > tc.budget && !raceEnabled {
			t.Errorf("%s: a delivery allocates %.0f objects, budget %.0f; it cost %.0f at commit d8ff1ee", tc.name, allocs, tc.budget, tc.parent)
		}
	}
}
