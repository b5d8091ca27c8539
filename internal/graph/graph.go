// Package graph implements the relation layer of the holistic data model
// (paper Section 3.2): a labeled property multigraph over entities that
// captures instance-level interconnectedness within and across sources.
//
// The mutable Graph supports continuous ingestion, entity merging (the
// output of entity resolution), and provenance- and confidence-annotated
// edges. For read-mostly analytical traversal, BuildCSR produces an
// immutable compressed-sparse-row snapshot whose vertex order can be chosen
// to improve the locality of multi-hop traversal — the paper's OS.2: "how
// to improve the locality of multi-hop traversal" given that one-hop direct
// access is already captured by the explicit interconnectedness.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"unsafe"

	"scdb/internal/model"
)

// Edge is one directed labeled edge. To may be an entity reference or a
// literal; only entity-valued edges participate in traversal.
type Edge struct {
	From       model.EntityID
	Predicate  string
	To         model.Value
	Source     string
	Confidence model.Fuzzy
}

// Graph is the mutable relation-layer store. It is safe for concurrent use.
type Graph struct {
	mu       sync.RWMutex
	entities map[model.EntityID]*model.Entity
	byKey    map[sourceKey]model.EntityID
	out      map[model.EntityID][]Edge
	in       map[model.EntityID][]model.EntityID // reverse adjacency (entity objects only)
	aliases  map[model.EntityID]model.EntityID   // merged → canonical
	nextID   model.EntityID
	nEdges   int
	version  uint64         // bumped on every mutation; lets snapshots detect staleness
	slab     []model.Entity // unused room new entities are carved from
}

// entitySlab is how many entities one slab holds: as many as fit in 8 KB
// beside the 8-byte header an array of pointers that large carries, so a
// slab takes the 8 KB size class and not the next. A slab lives while any of
// its entities does, and a merged-away entity keeps its element as it is
// (Merge), because a reader of Entity may still hold the pointer: what a
// merge retains is the one element, unsafe.Sizeof(model.Entity{}) (80)
// bytes, and its Types copy. Its Attrs is the stored row, which the store
// holds.
const entitySlab = (8<<10 - 8) / int(unsafe.Sizeof(model.Entity{}))

// New creates an empty graph.
func New() *Graph {
	return &Graph{
		entities: make(map[model.EntityID]*model.Entity),
		byKey:    make(map[sourceKey]model.EntityID),
		out:      make(map[model.EntityID][]Edge),
		in:       make(map[model.EntityID][]model.EntityID),
		aliases:  make(map[model.EntityID]model.EntityID),
	}
}

// sourceKey is an entity's source-local natural key: its source and its key,
// which no byte of either can make collide with another pair's.
type sourceKey struct{ source, key string }

// AddEntity inserts the entity, assigning and returning its ID. If an
// entity with the same (source, key) already exists, the existing entity is
// updated in place: attributes are merged (new values win over nulls only)
// and types are unioned — this is the idempotent re-ingestion path.
//
// A new entity borrows e.Attrs rather than copying it: the caller must not
// write to the map afterwards. The graph never writes to an entity's map
// either; a merge that fills an attribute replaces it (mergeAttrsLocked).
func (g *Graph) AddEntity(e *model.Entity) model.EntityID {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e.Key != "" {
		if id, ok := g.byKey[sourceKey{e.Source, e.Key}]; ok {
			id = g.resolveLocked(id)
			g.mergeAttrsLocked(g.entities[id], e)
			g.version++
			return id
		}
	}
	g.nextID++
	id := g.nextID
	if len(g.slab) == 0 {
		g.slab = make([]model.Entity, entitySlab)
	}
	c := &g.slab[0]
	g.slab = g.slab[1:]
	*c = *e
	c.ID = id
	c.Types = append([]string(nil), e.Types...)
	g.entities[id] = c
	if e.Key != "" {
		g.byKey[sourceKey{e.Source, e.Key}] = id
	}
	g.version++
	return id
}

// mergeAttrsLocked folds src's attributes and types into dst: existing
// non-null attributes are kept (first writer wins; conflict handling is the
// fusion layer's job), nulls and missing attributes are filled. A fill
// builds a new map and puts it in place of dst's, so no map the graph has
// handed out, or borrowed from a caller, is ever written. src's stored-row
// columns (model.IsRowColumn) are its own and never fill dst's.
func (g *Graph) mergeAttrsLocked(dst, src *model.Entity) {
	var filled model.Record
	for k, v := range src.Attrs {
		if model.IsRowColumn(k) {
			continue
		}
		if cur, ok := dst.Attrs[k]; !ok || cur.IsNull() {
			if filled == nil {
				filled = dst.Attrs.Clone()
			}
			filled[k] = v
		}
	}
	if filled != nil {
		dst.Attrs = filled
	}
	for _, t := range src.Types {
		dst.AddType(t)
	}
	if src.Confidence > dst.Confidence {
		dst.Confidence = src.Confidence
	}
}

// Entity returns the entity with the given ID (following merge aliases).
func (g *Graph) Entity(id model.EntityID) (*model.Entity, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.entities[g.resolveLocked(id)]
	return e, ok
}

// Resolve maps an ID through merge aliases to its canonical ID.
func (g *Graph) Resolve(id model.EntityID) model.EntityID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.resolveLocked(id)
}

func (g *Graph) resolveLocked(id model.EntityID) model.EntityID {
	for {
		next, ok := g.aliases[id]
		if !ok {
			return id
		}
		id = next
	}
}

// FindByKey looks an entity up by its source-local natural key.
func (g *Graph) FindByKey(source, key string) (*model.Entity, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	id, ok := g.byKey[sourceKey{source, key}]
	if !ok {
		return nil, false
	}
	e, ok := g.entities[g.resolveLocked(id)]
	return e, ok
}

// AddEdge inserts a directed labeled edge. Both endpoints are resolved
// through merge aliases. Duplicate edges (same from, predicate, to, source)
// are ignored, keeping re-ingestion idempotent.
func (g *Graph) AddEdge(e Edge) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	from := g.resolveLocked(e.From)
	if _, ok := g.entities[from]; !ok {
		return fmt.Errorf("graph: edge from unknown entity %d", e.From)
	}
	e.From = from
	if to, ok := e.To.AsRef(); ok {
		rto := g.resolveLocked(to)
		if _, ok := g.entities[rto]; !ok {
			return fmt.Errorf("graph: edge to unknown entity %d", to)
		}
		e.To = model.Ref(rto)
	}
	for _, ex := range g.out[from] {
		if ex.Predicate == e.Predicate && model.Equal(ex.To, e.To) && ex.Source == e.Source {
			return nil
		}
	}
	g.out[from] = append(g.out[from], e)
	if to, ok := e.To.AsRef(); ok {
		g.in[to] = append(g.in[to], from)
	}
	g.nEdges++
	g.version++
	return nil
}

// Edges returns the outgoing edges of the entity (alias-resolved). The
// returned slice must not be mutated.
func (g *Graph) Edges(id model.EntityID) []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.out[g.resolveLocked(id)]
}

// EdgesByPredicate returns outgoing edges with the given predicate.
func (g *Graph) EdgesByPredicate(id model.EntityID, pred string) []Edge {
	var res []Edge
	for _, e := range g.Edges(id) {
		if e.Predicate == pred {
			res = append(res, e)
		}
	}
	return res
}

// Neighbors returns the entity-valued targets of outgoing edges, optionally
// restricted to a predicate (empty pred means any).
func (g *Graph) Neighbors(id model.EntityID, pred string) []model.EntityID {
	var res []model.EntityID
	for _, e := range g.Edges(id) {
		if pred != "" && e.Predicate != pred {
			continue
		}
		if to, ok := e.To.AsRef(); ok {
			res = append(res, to)
		}
	}
	return res
}

// Incoming returns the sources of entity-valued edges pointing at id.
func (g *Graph) Incoming(id model.EntityID) []model.EntityID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.in[g.resolveLocked(id)]
}

// Merge folds entity dup into canonical keep: attributes and types are
// merged, dup's edges are redirected, and dup becomes an alias of keep.
// This is the core mutation performed by incremental entity resolution
// (FS.1). Merging an entity with itself is a no-op.
func (g *Graph) Merge(keep, dup model.EntityID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	keep = g.resolveLocked(keep)
	dup = g.resolveLocked(dup)
	if keep == dup {
		return nil
	}
	ke, ok := g.entities[keep]
	if !ok {
		return fmt.Errorf("graph: merge into unknown entity %d", keep)
	}
	de, ok := g.entities[dup]
	if !ok {
		return fmt.Errorf("graph: merge of unknown entity %d", dup)
	}
	g.mergeAttrsLocked(ke, de)
	// Redirect dup's outgoing edges.
	for _, e := range g.out[dup] {
		e.From = keep
		dupEdge := false
		for _, ex := range g.out[keep] {
			if ex.Predicate == e.Predicate && model.Equal(ex.To, e.To) && ex.Source == e.Source {
				dupEdge = true
				break
			}
		}
		if !dupEdge {
			g.out[keep] = append(g.out[keep], e)
		} else {
			g.nEdges--
		}
	}
	delete(g.out, dup)
	// Redirect incoming edges that point at dup.
	for _, from := range g.in[dup] {
		from = g.resolveLocked(from)
		for i, e := range g.out[from] {
			if to, ok := e.To.AsRef(); ok && g.resolveLocked(to) == dup {
				g.out[from][i].To = model.Ref(keep)
			}
		}
		g.in[keep] = append(g.in[keep], from)
	}
	delete(g.in, dup)
	g.aliases[dup] = keep
	delete(g.entities, dup)
	g.version++
	return nil
}

// NumEntities returns the number of canonical (unmerged) entities.
func (g *Graph) NumEntities() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.entities)
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nEdges
}

// Version returns the mutation counter; any mutation changes it. Snapshots
// (CSR) record the version they were built at so staleness is detectable —
// this is also the hook the transaction layer uses to detect enrichment
// phantoms (FS.11).
func (g *Graph) Version() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.version
}

// EntityIDs returns all canonical entity IDs in ascending order.
func (g *Graph) EntityIDs() []model.EntityID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.entityIDsLocked()
}

func (g *Graph) entityIDsLocked() []model.EntityID {
	ids := make([]model.EntityID, 0, len(g.entities))
	for id := range g.entities {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// ForEachEntity visits every canonical entity in ascending ID order.
func (g *Graph) ForEachEntity(fn func(*model.Entity) bool) {
	for _, id := range g.EntityIDs() {
		e, ok := g.Entity(id)
		if !ok {
			continue
		}
		if !fn(e) {
			return
		}
	}
}

// ForEachEdge visits every edge, grouped by source entity in ascending ID
// order.
func (g *Graph) ForEachEdge(fn func(Edge) bool) {
	for _, id := range g.EntityIDs() {
		for _, e := range g.Edges(id) {
			if !fn(e) {
				return
			}
		}
	}
}

// Sources returns every source name that registered an entity key or an
// edge, sorted. Unlike scanning entity.Source, this attribution survives
// merges: a source whose records were all merged into other sources'
// entities still appears.
func (g *Graph) Sources() []string {
	g.mu.RLock()
	set := map[string]bool{}
	for k := range g.byKey {
		set[k.source] = true
	}
	for _, edges := range g.out {
		for _, e := range edges {
			set[e.Source] = true
		}
	}
	g.mu.RUnlock()
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// SourceEntities returns the canonical entity for every key the source
// registered (one entry per registered record, in key order; merged
// records resolve to their canonical entity).
func (g *Graph) SourceEntities(source string) []model.EntityID {
	g.mu.RLock()
	keys := make([]string, 0)
	for k := range g.byKey {
		if k.source == source {
			keys = append(keys, k.key)
		}
	}
	sort.Strings(keys)
	out := make([]model.EntityID, 0, len(keys))
	for _, k := range keys {
		out = append(out, g.resolveLocked(g.byKey[sourceKey{source, k}]))
	}
	g.mu.RUnlock()
	return out
}

// EntitiesByType returns the IDs of entities asserting the given type.
func (g *Graph) EntitiesByType(typ string) []model.EntityID {
	var res []model.EntityID
	g.ForEachEntity(func(e *model.Entity) bool {
		if e.HasType(typ) {
			res = append(res, e.ID)
		}
		return true
	})
	return res
}
