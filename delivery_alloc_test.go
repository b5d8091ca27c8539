package scdb

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// deliveryStream builds deliveries shaped like the standing benchmark's
// ingest stream: four feeds in turn, each entity a three-word lower-case
// name and a four-letter city, and about 30 % of a delivery re-mentioning
// an entity another feed delivered earlier, with a typo, two words swapped
// or one dropped.
func deliveryStream(seed int64, n, per int) []Source {
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
		feed  int
		words [3]string
		city  string
	}
	feeds := [...]string{"feed_a", "feed_b", "feed_c", "feed_d"}
	var pool []mention
	serial := make([]int, len(feeds))
	out := make([]Source, 0, n)
	for d := 0; d < n; d++ {
		feed := d % len(feeds)
		src := Source{Name: feeds[feed], Entities: make([]Entity, 0, per)}
		var fresh []mention
		for e := 0; e < per; e++ {
			var m mention
			if i := rng.Intn(max(len(pool), 1)); len(pool) > 0 && pool[i].feed != feed && rng.Float64() < 0.3 {
				m = pool[i]
				switch rng.Intn(3) {
				case 0:
					b := []byte(m.words[0])
					b[0] = 'a' + (b[0]-'a'+1)%26
					m.words[0] = string(b)
				case 1:
					m.words[0], m.words[1] = m.words[1], m.words[0]
				default:
					m.words[2] = ""
				}
			} else {
				m = mention{feed: feed, city: cities[rng.Intn(len(cities))]}
				for i := range m.words {
					m.words[i] = vocab[rng.Intn(len(vocab))]
				}
				fresh = append(fresh, m)
			}
			serial[feed]++
			src.Entities = append(src.Entities, Entity{
				Key:   fmt.Sprintf("%s-%06d", feeds[feed][5:], serial[feed]),
				Attrs: Record{"name": strings.TrimSpace(strings.Join(m.words[:], " ")), "city": m.city},
			})
		}
		pool = append(pool, fresh...)
		out = append(out, src)
	}
	return out
}

// TestDeliveryAllocBudget is the ingest allocation gate: one 200-entity
// delivery through IngestCtx on a durable store, after a warm-up that gives
// the resolver blocks worth searching. The facade converts an arrival's
// attributes into one map, and that map is its stored row, which the graph
// borrows; a batch's rows come from one slab; each of its values is
// normalized once for the resolver, the attribute index and the gazetteer,
// its batch is encoded into one buffer, and the resolver's index and the
// graph's entity are carved from arenas, so a delivery costs at most 4.5
// objects an entity (3.4 on go1.24/linux/amd64; 9.5 while the resolver
// indexed an entity in five objects of its own and the graph copied it into
// one, 13.5 while the row was a clone of the converted map and storage made
// two objects a row, 24 while the resolver made an object per value). The
// same test measured 41 at commit 2f5c776, before any of that.
func TestDeliveryAllocBudget(t *testing.T) {
	const per, warm, runs = 200, 40, 8
	db, err := Open(Options{Dir: t.TempDir(), Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stream := deliveryStream(7, warm+runs+1, per)
	ctx := context.Background()
	for _, src := range stream[:warm] {
		if err := db.IngestCtx(ctx, src); err != nil {
			t.Fatal(err)
		}
	}
	next := warm
	allocs := testing.AllocsPerRun(runs, func() {
		if err := db.IngestCtx(ctx, stream[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	perEntity := allocs / per
	t.Logf("one %d-entity delivery allocates %.0f objects, %.1f an entity", per, allocs, perEntity)
	budget := 4.5
	if raceEnabled {
		budget = 14 // 10.2 here; 16.3 before the arenas, 20.3 before the row was built once, 28.7 before the pooled Prepared
	}
	if perEntity > budget {
		t.Errorf("a delivery allocates %.1f objects an entity, budget %.1f; the same delivery cost 41 at commit 2f5c776", perEntity, budget)
	}
}

// TestEntityHeapBudget is the heap gate for what curation keeps of an
// entity: 100 in-memory deliveries of 200 entities, and the HeapInuse they
// leave behind after a collection, per entity. The graph entity's
// attributes are its stored row, not a second map: 1,790 to 1,860 bytes an
// entity on go1.24/linux/amd64 over six runs, where a graph map of its own
// beside the row kept 2,140 to 2,190. The race build's instrumentation
// inflates the heap, so the gate runs without it.
func TestEntityHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build's heap is not the one the budget measures")
	}
	const deliveries, per = 100, 200
	stream := deliveryStream(7, deliveries, per)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, src := range stream {
		if err := db.Ingest(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(stream)
	perEntity := float64(int64(after.HeapInuse)-int64(before.HeapInuse)) / (deliveries * per)
	t.Logf("%d entities keep %.0f bytes of heap an entity", deliveries*per, perEntity)
	if budget := 2000.0; perEntity > budget {
		t.Errorf("curation keeps %.0f bytes of heap an entity, budget %.0f; a graph map of its own beside the stored row kept about 2,170", perEntity, budget)
	}
}
