package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"scdb/internal/model"
)

// Order selects the vertex layout of a CSR snapshot. The layout is the
// locality lever of OS.2: with OrderBFS, entities that are graph-neighbors
// are also memory-neighbors, so a multi-hop traversal touches far fewer
// cache lines than pointer-chasing a map-of-slices.
type Order int

const (
	// OrderInsertion lays vertices out in entity-ID order.
	OrderInsertion Order = iota
	// OrderBFS lays vertices out in breadth-first order from the
	// highest-degree roots, packing traversal neighborhoods contiguously.
	OrderBFS
	// OrderDegree lays vertices out by descending out-degree, packing the
	// hub entities (and hence most traversal work) into few cache lines.
	OrderDegree
)

// String names the order for reports.
func (o Order) String() string {
	switch o {
	case OrderInsertion:
		return "insertion"
	case OrderBFS:
		return "bfs"
	case OrderDegree:
		return "degree"
	}
	return fmt.Sprintf("order(%d)", int(o))
}

// CSR is an immutable compressed-sparse-row snapshot of the entity graph's
// entity-valued edges: the update-friendly mutable Graph remains the system
// of record while analytical traversal runs over this locality-optimized
// representation (the pairing OS.2 asks for).
type CSR struct {
	ids     []model.EntityID // position → entity ID, in layout order
	pos     []int32          // entity ID → position+1, 0 if absent; entity IDs are dense
	offsets []int32          // position → [start,end) in targets
	targets []int32          // neighbor positions
	predIDs []uint16         // per-edge predicate dictionary index
	preds   []string         // predicate dictionary
	predIdx map[string]uint16
	version uint64
	walkers sync.Pool // *walker
}

// cacheLineTargets is the number of int32 targets per simulated cache line
// (64-byte lines).
const cacheLineTargets = 16

// BuildCSR snapshots the graph's entity-valued edges under the given vertex
// order. It reads the graph under one read lock, so the snapshot is the
// graph at its Version.
func (g *Graph) BuildCSR(order Order) *CSR {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := g.entityIDsLocked()
	switch order {
	case OrderBFS:
		ids = g.bfsOrderLocked(ids)
	case OrderDegree:
		ids = g.byDegreeLocked(ids)
	}
	c := &CSR{
		ids:     ids,
		pos:     make([]int32, g.nextID+1),
		offsets: make([]int32, len(ids)+1),
		predIdx: make(map[string]uint16),
		version: g.version,
	}
	c.walkers.New = func() any { return &walker{visited: make([]bool, len(ids))} }
	for i, id := range ids {
		c.pos[id] = int32(i) + 1
	}
	for alias := range g.aliases {
		c.pos[alias] = c.pos[g.resolveLocked(alias)]
	}
	for i, id := range ids {
		for _, e := range g.out[id] {
			to, ok := e.To.AsRef()
			if !ok {
				continue
			}
			tpos := c.Pos(to)
			if tpos < 0 {
				continue
			}
			c.targets = append(c.targets, tpos)
			c.predIDs = append(c.predIDs, c.predID(e.Predicate))
		}
		c.offsets[i+1] = int32(len(c.targets))
	}
	return c
}

func (c *CSR) predID(p string) uint16 {
	if id, ok := c.predIdx[p]; ok {
		return id
	}
	id := uint16(len(c.preds))
	c.preds = append(c.preds, p)
	c.predIdx[p] = id
	return id
}

// byDegreeLocked orders ids, ascending, by descending out-degree, ties in
// ID order.
func (g *Graph) byDegreeLocked(ids []model.EntityID) []model.EntityID {
	deg := make([]int, g.nextID+1)
	for _, id := range ids {
		deg[id] = len(g.out[id])
	}
	out := slices.Clone(ids)
	slices.SortFunc(out, func(a, b model.EntityID) int {
		if deg[a] != deg[b] {
			return deg[b] - deg[a]
		}
		return cmp.Compare(a, b)
	})
	return out
}

// bfsOrderLocked produces a breadth-first layout seeded from the
// highest-degree unvisited vertex until all vertices are placed. The
// layout is its own queue: out[head:] is what is yet to be expanded.
func (g *Graph) bfsOrderLocked(ids []model.EntityID) []model.EntityID {
	visited := make([]bool, g.nextID+1)
	out := make([]model.EntityID, 0, len(ids))
	head := 0
	for _, seed := range g.byDegreeLocked(ids) {
		if visited[seed] {
			continue
		}
		visited[seed] = true
		for out = append(out, seed); head < len(out); head++ {
			for _, e := range g.out[out[head]] {
				to, ok := e.To.AsRef()
				if !ok {
					continue
				}
				if nb := g.resolveLocked(to); !visited[nb] {
					visited[nb] = true
					out = append(out, nb)
				}
			}
		}
	}
	return out
}

// Version returns the graph version the snapshot was built at.
func (c *CSR) Version() uint64 { return c.version }

// Pos returns the layout position of the entity, or of the entity it had
// been merged into when the snapshot was taken, or -1 if absent.
func (c *CSR) Pos(id model.EntityID) int32 {
	if id < model.EntityID(len(c.pos)) {
		return c.pos[id] - 1
	}
	return -1
}

// TraversalStats quantifies the memory-locality of one traversal: Visited
// counts reached vertices; Lines counts 64-byte cache-line fetches under a
// one-line cache model (a fetch is charged whenever an access lands on a
// different line than the previous access to the same array). Sequential
// layouts therefore pay ~1/16th of a fetch per edge while scattered layouts
// pay a full fetch per edge — the same signal a hardware cache would give,
// available to a portable library.
type TraversalStats struct {
	Visited int
	Lines   int
}

// lineTracker charges a miss whenever the accessed line differs from the
// previously accessed line of the same array.
type lineTracker struct {
	last   int32
	misses int
}

func newLineTracker() lineTracker { return lineTracker{last: -1} }

func (t *lineTracker) touch(index int32) {
	line := index / cacheLineTargets
	if line != t.last {
		t.misses++
		t.last = line
	}
}

// Mask selects the predicates a walk follows, one flag per entry of the
// snapshot's predicate dictionary. A nil Mask follows every predicate.
type Mask []bool

// Mask admits each dictionary predicate that admit accepts.
func (c *CSR) Mask(admit func(pred string) bool) Mask {
	m := make(Mask, len(c.preds))
	for i, p := range c.preds {
		m[i] = admit(p)
	}
	return m
}

// walker is a walk's scratch, pooled per snapshot. Between walks every
// visited flag is false: release clears what the walk marked.
type walker struct {
	visited []bool
	queue   []int32
}

func (c *CSR) release(w *walker) {
	for _, p := range w.queue {
		w.visited[p] = false
	}
	c.walkers.Put(w)
}

// walk is the snapshot's one traversal: breadth-first from sp for up to k
// hops over the edges mask admits. It stops at the first admitted edge that
// ends at stop, even where stop is the start and the edge closes a cycle;
// stop < 0 never stops it. A search for stop expands nothing on its last
// hop, so it takes a walker from the pool only to expand an earlier one: a
// one-hop search reads the start's edges and nothing else. The walker, if
// taken, holds the start and then, in BFS order, every position the walk
// queued; the caller releases it.
func (c *CSR) walk(sp int32, k int, mask Mask, stop int32) (w *walker, found bool, lines int) {
	offLines, tgtLines := newLineTracker(), newLineTracker()
	start := [1]int32{sp}
	frontier := start[:]
hops:
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
		expand := stop < 0 || hop < k-1
		if expand && w == nil {
			w = c.walkers.Get().(*walker)
			w.queue = append(w.queue[:0], sp)
			w.visited[sp] = true
		}
		next := 0
		if w != nil {
			next = len(w.queue)
		}
		for _, p := range frontier {
			offLines.touch(p)
			for i := c.offsets[p]; i < c.offsets[p+1]; i++ {
				tgtLines.touch(i)
				if mask != nil && !mask[c.predIDs[i]] {
					continue
				}
				if t := c.targets[i]; t == stop {
					found = true
					break hops
				} else if expand && !w.visited[t] {
					w.visited[t] = true
					w.queue = append(w.queue, t)
				}
			}
		}
		if w == nil {
			break
		}
		frontier = w.queue[next:]
	}
	return w, found, offLines.misses + tgtLines.misses
}

// KHop runs a breadth-first traversal from start up to k hops over the
// edges mask admits. It returns the reached entities (excluding start)
// and locality stats.
func (c *CSR) KHop(start model.EntityID, k int, mask Mask) ([]model.EntityID, TraversalStats) {
	sp := c.Pos(start)
	if sp < 0 || k <= 0 {
		return nil, TraversalStats{}
	}
	w, _, lines := c.walk(sp, k, mask, -1)
	defer c.release(w)
	var reached []model.EntityID
	for _, p := range w.queue[1:] {
		reached = append(reached, c.ids[p])
	}
	return reached, TraversalStats{Visited: len(reached), Lines: lines}
}

// Reaches reports whether a path of one to k edges that mask admits leads
// from start to target, each resolved through the snapshot's merges as
// Pos resolves it. It answers SCQL's REACHES, after that predicate's 0-hop
// identity, and LINKED, which is one hop: an entity is linked to itself
// only by a self edge.
func (c *CSR) Reaches(start, target model.EntityID, k int, mask Mask) bool {
	sp, stop := c.Pos(start), c.Pos(target)
	if sp < 0 || stop < 0 {
		return false
	}
	w, found, _ := c.walk(sp, k, mask, stop)
	if w != nil {
		c.release(w)
	}
	return found
}

// KHop is the adjacency-map baseline traversal, running directly over the
// mutable graph. Its locality stats use the same one-line cache model, but
// — unlike the CSR — every visited vertex costs two extra line fetches (the
// map bucket probe and the slice-header indirection) and its adjacency
// slice is a separate allocation, so its lines are never shared with
// neighbors: the scattered-allocation cost of a pointer-based structure.
// No query runs it: it is the baseline the experiments measure walk by.
func (g *Graph) KHop(start model.EntityID, k int, pred string) ([]model.EntityID, TraversalStats) {
	var stats TraversalStats
	start = g.Resolve(start)
	if _, ok := g.Entity(start); !ok || k <= 0 {
		return nil, stats
	}
	visited := map[model.EntityID]bool{start: true}
	frontier := []model.EntityID{start}
	var reached []model.EntityID
	lineCount := 0
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
		var next []model.EntityID
		for _, id := range frontier {
			edges := g.Edges(id)
			// Map bucket probe + slice header, then the slice's own lines.
			lineCount += 2
			if len(edges) > 0 {
				lineCount += (len(edges) + cacheLineTargets - 1) / cacheLineTargets
			}
			for _, e := range edges {
				if pred != "" && e.Predicate != pred {
					continue
				}
				to, ok := e.To.AsRef()
				if !ok {
					continue
				}
				to = g.Resolve(to)
				if !visited[to] {
					visited[to] = true
					next = append(next, to)
					reached = append(reached, to)
				}
			}
		}
		frontier = next
	}
	stats.Visited = len(reached)
	stats.Lines = lineCount
	return reached, stats
}
