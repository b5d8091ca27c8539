package graph

import (
	"fmt"
	"sort"

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
	ids     []model.EntityID         // position → entity ID, in layout order
	pos     map[model.EntityID]int32 // entity ID → position
	offsets []int32                  // position → [start,end) in targets
	targets []int32                  // neighbor positions
	predIDs []uint16                 // per-edge predicate dictionary index
	preds   []string                 // predicate dictionary
	predIdx map[string]uint16
	version uint64
}

// cacheLineTargets is the number of int32 targets per simulated cache line
// (64-byte lines).
const cacheLineTargets = 16

// BuildCSR snapshots the graph's entity-valued edges under the given vertex
// order.
func (g *Graph) BuildCSR(order Order) *CSR {
	ids := g.EntityIDs()
	switch order {
	case OrderBFS:
		ids = g.bfsOrder(ids)
	case OrderDegree:
		sort.SliceStable(ids, func(i, j int) bool {
			return len(g.Edges(ids[i])) > len(g.Edges(ids[j]))
		})
	}
	c := &CSR{
		ids:     ids,
		pos:     make(map[model.EntityID]int32, len(ids)),
		offsets: make([]int32, len(ids)+1),
		predIdx: make(map[string]uint16),
		version: g.Version(),
	}
	for i, id := range ids {
		c.pos[id] = int32(i)
	}
	for i, id := range ids {
		for _, e := range g.Edges(id) {
			to, ok := e.To.AsRef()
			if !ok {
				continue
			}
			tpos, ok := c.pos[g.Resolve(to)]
			if !ok {
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

// bfsOrder produces a breadth-first layout seeded from the highest-degree
// unvisited vertex until all vertices are placed.
func (g *Graph) bfsOrder(ids []model.EntityID) []model.EntityID {
	byDegree := append([]model.EntityID(nil), ids...)
	sort.SliceStable(byDegree, func(i, j int) bool {
		return len(g.Edges(byDegree[i])) > len(g.Edges(byDegree[j]))
	})
	visited := make(map[model.EntityID]bool, len(ids))
	out := make([]model.EntityID, 0, len(ids))
	var queue []model.EntityID
	for _, seed := range byDegree {
		if visited[seed] {
			continue
		}
		visited[seed] = true
		queue = append(queue[:0], seed)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			out = append(out, cur)
			for _, nb := range g.Neighbors(cur, "") {
				nb = g.Resolve(nb)
				if !visited[nb] {
					visited[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	return out
}

// Len returns the number of vertices in the snapshot.
func (c *CSR) Len() int { return len(c.ids) }

// NumEdges returns the number of entity-valued edges in the snapshot.
func (c *CSR) NumEdges() int { return len(c.targets) }

// Version returns the graph version the snapshot was built at.
func (c *CSR) Version() uint64 { return c.version }

// Pos returns the layout position of the entity, or -1 if absent.
func (c *CSR) Pos(id model.EntityID) int32 {
	if p, ok := c.pos[id]; ok {
		return p
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

// KHop runs a breadth-first traversal from start up to k hops, optionally
// restricted to one predicate (empty means any). It returns the reached
// entities (excluding start) and locality stats.
func (c *CSR) KHop(start model.EntityID, k int, pred string) ([]model.EntityID, TraversalStats) {
	var stats TraversalStats
	sp := c.Pos(start)
	if sp < 0 || k <= 0 {
		return nil, stats
	}
	wantPred := int32(-1)
	if pred != "" {
		id, ok := c.predIdx[pred]
		if !ok {
			return nil, stats
		}
		wantPred = int32(id)
	}
	visited := make([]bool, len(c.ids))
	visited[sp] = true
	offLines := newLineTracker()
	tgtLines := newLineTracker()
	frontier := []int32{sp}
	var reached []model.EntityID
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
		var next []int32
		for _, p := range frontier {
			offLines.touch(p)
			lo, hi := c.offsets[p], c.offsets[p+1]
			for i := lo; i < hi; i++ {
				tgtLines.touch(i)
				if wantPred >= 0 && int32(c.predIDs[i]) != wantPred {
					continue
				}
				t := c.targets[i]
				if !visited[t] {
					visited[t] = true
					next = append(next, t)
					reached = append(reached, c.ids[t])
				}
			}
		}
		frontier = next
	}
	stats.Visited = len(reached)
	stats.Lines = offLines.misses + tgtLines.misses
	return reached, stats
}

// KHop is the adjacency-map baseline traversal, running directly over the
// mutable graph. Its locality stats use the same one-line cache model, but
// — unlike the CSR — every visited vertex costs two extra line fetches (the
// map bucket probe and the slice-header indirection) and its adjacency
// slice is a separate allocation, so its lines are never shared with
// neighbors: the scattered-allocation cost of a pointer-based structure.
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

// Reaches reports whether target is reachable from start within k hops over
// the given predicate (empty means any). It is the primitive behind SCQL's
// REACHES predicate.
func (g *Graph) Reaches(start, target model.EntityID, k int, pred string) bool {
	target = g.Resolve(target)
	if g.Resolve(start) == target {
		return true
	}
	reached, _ := g.KHop(start, k, pred)
	for _, id := range reached {
		if id == target {
			return true
		}
	}
	return false
}
