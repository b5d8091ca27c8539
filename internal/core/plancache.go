package core

import (
	"encoding/binary"
	"sync"

	"scdb/internal/model"
	"scdb/internal/query"
)

// planCache memoizes the lex/parse/optimize pipeline for the SCQL hot
// path. A plan is keyed by the statement's shape (query.AppendShape): its
// tokens with each comparison literal cut out, so a point read with a new
// key or a range with a new bound plans once per shape and binds its
// values at execution. The key also carries the schema and ontology
// versions, so any catalog or TBox change — new tables, new axioms —
// invalidates every stale plan without an invalidation protocol: the key
// simply never matches again, and stale entries age out of the bounded map.
//
// Cached plans and statements are immutable after optimization (the
// executor never mutates plan nodes, and a Param's value comes from the
// execution), so one entry may serve concurrent queries. The cache is a
// plain mutex around a small map: get/put are a map probe plus a counter
// bump, cheap enough for the per-query path.
type planEntry struct {
	stmt     *query.SelectStmt // a Param for each lifted literal
	plan     query.Node
	planText string   // empty unless the statement is a TRACE
	rules    []string // likewise
	cost     float64
	morsels  int
	system   bool // the statement reads system relations
	lastUsed uint64
}

type planCache struct {
	mu      sync.Mutex
	cap     int
	tick    uint64
	entries map[string]*planEntry // by planKey
	hits    uint64
	misses  uint64
}

// planKey appends a plan-cache key to dst: the schema and ontology versions
// (storage.Store.SchemaVersion, ontology.Ontology.Version), then the
// statement's shape and the values of its lifted literals to args.
func planKey(dst []byte, args []model.Value, schema, onto uint64, src string) ([]byte, []model.Value, error) {
	dst = binary.AppendUvarint(dst, schema)
	dst = binary.AppendUvarint(dst, onto)
	return query.AppendShape(dst, args, src)
}

// planCacheSize bounds an engine's plan cache.
const planCacheSize = 256

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, entries: make(map[string]*planEntry)}
}

func (c *planCache) get(k []byte) (*planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[string(k)]
	if !ok {
		c.misses++
		return nil, false
	}
	c.tick++
	e.lastUsed = c.tick
	c.hits++
	return e, true
}

func (c *planCache) put(k string, e *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[k]; !exists && len(c.entries) >= c.cap {
		// Evict the least-recently-used entry; an O(cap) sweep is fine at
		// this size and keeps the structure a single flat map.
		var victim string
		var oldest uint64 = ^uint64(0)
		for key, ent := range c.entries {
			if ent.lastUsed < oldest {
				oldest, victim = ent.lastUsed, key
			}
		}
		delete(c.entries, victim)
	}
	c.tick++
	e.lastUsed = c.tick
	c.entries[k] = e
}

// clear drops every cached plan. Used when the derived layers are rebuilt
// wholesale (replication refresh): the fresh ontology carries a new version
// counter that could collide with a stale key's, so version keying alone
// cannot be trusted across a swap.
func (c *planCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*planEntry)
}

// PlanCacheStats reports plan-cache effectiveness.
type PlanCacheStats struct {
	Hits   uint64
	Misses uint64
	Size   int
}

func (c *planCache) stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Hits: c.hits, Misses: c.misses, Size: len(c.entries)}
}
