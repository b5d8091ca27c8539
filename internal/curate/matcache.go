package curate

import (
	"fmt"
	"sync"
)

// MatPolicy selects the materialization cache's retention policy.
type MatPolicy int

const (
	// PolicyRanked retains entries by rank = hits × benefit (recompute
	// cost), the context-aware policy FS.9 proposes: discovered results
	// that are expensive to rebuild and frequently reused stay
	// materialized.
	PolicyRanked MatPolicy = iota
	// PolicyLRU is the classical recency baseline.
	PolicyLRU
)

// String names the policy.
func (p MatPolicy) String() string {
	switch p {
	case PolicyRanked:
		return "ranked"
	case PolicyLRU:
		return "lru"
	}
	return fmt.Sprintf("matpolicy(%d)", int(p))
}

// MatStats reports cache effectiveness.
type MatStats struct {
	Hits, Misses, Evictions int
}

// HitRate returns hits / (hits+misses).
func (s MatStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// matEntry is one materialized result and its node in the cache's
// recency ring.
type matEntry struct {
	key        string
	value      any
	benefit    float64 // recompute cost
	hits       int
	prev, next *matEntry
}

// rank is the retention score under PolicyRanked.
func (e *matEntry) rank() float64 { return float64(1+e.hits) * e.benefit }

// MatCache is the materialization cache for discovered/derived results
// (FS.9). Safe for concurrent use. An entry is valid by version: Get and
// Put take the version of the state the caller reads, a call with a newer
// version than the cache's drops every entry first, and a Put from an older
// one is ignored.
type MatCache struct {
	mu       sync.Mutex
	policy   MatPolicy
	capacity int
	ver      uint64 // the version every entry was computed at
	entries  map[string]*matEntry
	lru      matEntry // the recency ring's sentinel: next = most recent
	stats    MatStats
}

// NewMatCache creates a cache holding up to capacity entries.
func NewMatCache(capacity int, policy MatPolicy) *MatCache {
	if capacity <= 0 {
		capacity = 64
	}
	c := &MatCache{policy: policy, capacity: capacity, entries: map[string]*matEntry{}}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Get returns the result materialized for the key at version ver or later.
func (c *MatCache) Get(key string, ver uint64) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(ver)
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	e.hits++
	c.touch(e)
	return e.value, true
}

// Put materializes a result computed at version ver, unless a newer
// version has been seen. benefit is the cost of recomputing it (the ranked
// policy keeps high-benefit entries; LRU ignores it).
func (c *MatCache) Put(key string, value any, benefit float64, ver uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.advanceLocked(ver); ver < c.ver {
		return
	}
	if e, ok := c.entries[key]; ok {
		e.value = value
		e.benefit = benefit
		c.touch(e)
		return
	}
	if len(c.entries) >= c.capacity {
		c.evict()
	}
	e := &matEntry{key: key, value: value, benefit: benefit}
	c.touch(e)
	c.entries[key] = e
}

// touch makes e the most recent entry, unlinking it first if it is linked.
func (c *MatCache) touch(e *matEntry) {
	if e.next != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	}
	e.prev, e.next = &c.lru, c.lru.next
	e.next.prev, c.lru.next = e, e
}

// evict removes one entry per the policy.
func (c *MatCache) evict() {
	switch c.policy {
	case PolicyLRU:
		if back := c.lru.prev; back != &c.lru {
			c.remove(back)
		}
	case PolicyRanked:
		var victim *matEntry
		for _, e := range c.entries {
			if victim == nil || e.rank() < victim.rank() ||
				(e.rank() == victim.rank() && e.key < victim.key) {
				victim = e
			}
		}
		if victim != nil {
			c.remove(victim)
		}
	}
}

func (c *MatCache) remove(e *matEntry) {
	delete(c.entries, e.key)
	e.prev.next, e.next.prev = e.next, e.prev
	c.stats.Evictions++
}

// advanceLocked drops every entry when ver is newer than the cache's.
func (c *MatCache) advanceLocked(ver uint64) {
	if ver > c.ver {
		c.ver = ver
		clear(c.entries)
		c.lru.prev, c.lru.next = &c.lru, &c.lru
	}
}

// Len returns the number of materialized entries.
func (c *MatCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the hit/miss counters.
func (c *MatCache) Stats() MatStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
