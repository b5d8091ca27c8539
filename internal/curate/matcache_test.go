package curate

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// listCache is the oracle for MatCache: the same rules over a
// container/list recency order (front = most recent).
type listCache struct {
	policy   MatPolicy
	capacity int
	ver      uint64
	order    *list.List // of *matEntry; only key, value, benefit, hits are used
	byKey    map[string]*list.Element
	stats    MatStats
}

func newListCache(capacity int, policy MatPolicy) *listCache {
	return &listCache{policy: policy, capacity: capacity, order: list.New(), byKey: map[string]*list.Element{}}
}

func (o *listCache) advance(ver uint64) {
	if ver > o.ver {
		o.ver = ver
		o.order.Init()
		clear(o.byKey)
	}
}

func (o *listCache) get(key string, ver uint64) (any, bool) {
	o.advance(ver)
	el, ok := o.byKey[key]
	if !ok {
		o.stats.Misses++
		return nil, false
	}
	o.stats.Hits++
	e := el.Value.(*matEntry)
	e.hits++
	o.order.MoveToFront(el)
	return e.value, true
}

func (o *listCache) put(key string, value any, benefit float64, ver uint64) {
	if o.advance(ver); ver < o.ver {
		return
	}
	if el, ok := o.byKey[key]; ok {
		e := el.Value.(*matEntry)
		e.value, e.benefit = value, benefit
		o.order.MoveToFront(el)
		return
	}
	if len(o.byKey) >= o.capacity {
		victim := o.order.Back()
		if o.policy == PolicyRanked {
			for el := o.order.Front(); el != nil; el = el.Next() {
				e, v := el.Value.(*matEntry), victim.Value.(*matEntry)
				if e.rank() < v.rank() || e.rank() == v.rank() && e.key < v.key {
					victim = el
				}
			}
		}
		delete(o.byKey, victim.Value.(*matEntry).key)
		o.order.Remove(victim)
		o.stats.Evictions++
	}
	o.byKey[key] = o.order.PushFront(&matEntry{key: key, value: value, benefit: benefit})
}

// recency lists the oracle's keys, most recent first.
func (o *listCache) recency() []string {
	var keys []string
	for el := o.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*matEntry).key)
	}
	return keys
}

// recency lists the cache's keys by its ring, most recent first, and fails
// the test when the ring read backwards is not the same order reversed.
func recency(t *testing.T, c *MatCache) []string {
	t.Helper()
	var fwd, back []string
	for e := c.lru.next; e != &c.lru; e = e.next {
		fwd = append(fwd, e.key)
	}
	for e := c.lru.prev; e != &c.lru; e = e.prev {
		back = append(back, e.key)
	}
	rev := slices.Clone(back)
	slices.Reverse(rev)
	if !slices.Equal(fwd, rev) {
		t.Fatalf("the recency ring reads %v forwards and %v backwards", fwd, back)
	}
	return fwd
}

// TestMatCacheMatchesListOracle runs random Get and Put sequences, some at
// newer or older versions, under both policies, and holds every answer,
// the counters and the recency order (hence what each eviction took) to
// the container/list oracle.
func TestMatCacheMatchesListOracle(t *testing.T) {
	for _, policy := range []MatPolicy{PolicyLRU, PolicyRanked} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			capacity := 1 + rng.Intn(6)
			c, o := NewMatCache(capacity, policy), newListCache(capacity, policy)
			ver := uint64(0)
			for step := 0; step < 2000; step++ {
				key := fmt.Sprintf("k%d", rng.Intn(3*capacity))
				at := ver
				switch r := rng.Intn(100); {
				case r < 2:
					ver++
					at = ver
				case r < 5 && ver > 0:
					at = ver - 1
				}
				if rng.Intn(2) == 0 {
					got, gotOK := c.Get(key, at)
					want, wantOK := o.get(key, at)
					if gotOK != wantOK || got != want {
						t.Fatalf("%v seed %d step %d: Get(%s, %d) = %v, %v; oracle %v, %v", policy, seed, step, key, at, got, gotOK, want, wantOK)
					}
				} else {
					benefit := float64(1 + rng.Intn(4))
					c.Put(key, step, benefit, at)
					o.put(key, step, benefit, at)
				}
				if got, want := recency(t, c), o.recency(); !slices.Equal(got, want) {
					t.Fatalf("%v seed %d step %d: recency %v, oracle %v", policy, seed, step, got, want)
				}
				if c.Stats() != o.stats || c.Len() != len(o.byKey) {
					t.Fatalf("%v seed %d step %d: stats %+v, %d entries; oracle %+v, %d", policy, seed, step, c.Stats(), c.Len(), o.stats, len(o.byKey))
				}
			}
		}
	}
}
