package er

import "scdb/internal/model"

// UnionFind maintains the merge clusters produced by entity resolution,
// with path compression and union by size. It is two slices indexed by ID,
// since the IDs it sees are dense counters (graph IDs, the exchange's xid),
// and it keeps the number of its sets as it goes.
type UnionFind struct {
	parent []model.EntityID
	size   []uint32 // a root's member count; 0 for an ID not yet seen
	sets   int
}

// NewUnionFind creates an empty structure.
func NewUnionFind() *UnionFind { return &UnionFind{} }

// Find returns the canonical representative of the entity's cluster,
// registering the entity on first sight.
func (u *UnionFind) Find(id model.EntityID) model.EntityID {
	if n := int(id) + 1 - len(u.parent); n > 0 {
		u.parent = append(u.parent, make([]model.EntityID, n)...)
		u.size = append(u.size, make([]uint32, n)...)
	}
	if u.size[id] == 0 {
		u.parent[id], u.size[id] = id, 1
		u.sets++
		return id
	}
	p := u.parent[id]
	if p == id {
		return id
	}
	root := u.Find(p)
	u.parent[id] = root
	return root
}

// Union merges the clusters of a and b; the smaller cluster joins the
// larger, ties keep the lower ID as representative (determinism). It
// reports whether a merge actually happened.
func (u *UnionFind) Union(a, b model.EntityID) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] || (u.size[ra] == u.size[rb] && rb < ra) {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	u.sets--
	return true
}

// Same reports whether the two entities are in one cluster.
func (u *UnionFind) Same(a, b model.EntityID) bool {
	return u.Find(a) == u.Find(b)
}

// Sets is the number of clusters, singletons included.
func (u *UnionFind) Sets() int { return u.sets }

// Clusters returns all clusters with at least minSize members, each sorted
// ascending, ordered by their smallest member.
func (u *UnionFind) Clusters(minSize int) [][]model.EntityID {
	at := make([]int32, len(u.parent)) // a root's cluster in out, plus one
	var out [][]model.EntityID
	for i, n := range u.size {
		id := model.EntityID(i)
		if n == 0 {
			continue
		}
		root := u.Find(id)
		if int(u.size[root]) < minSize {
			continue
		}
		if at[root] == 0 {
			out = append(out, make([]model.EntityID, 0, u.size[root]))
			at[root] = int32(len(out))
		}
		out[at[root]-1] = append(out[at[root]-1], id)
	}
	return out
}
