package er

// Cross-shard entity resolution. A sharded cluster hash-partitions entity
// ownership by key, so each shard's resolver only ever sees its own
// records — two entities that would have merged on a single node can land
// on different shards and never become candidates for each other. The
// router closes that gap by pulling Digests (the pairwise-scoring evidence
// of each indexed entity) from every shard and feeding them to an
// Exchange: a Resolver whose entities are digests. There is one candidate
// generator and one scorer, Resolver.Prepare and Commit; the exchange only
// widens the resolver's never-pair rule from "same source" to "same source
// or same shard". Because scoring is pure and union-find closure is
// order-independent, the set of clusters the cluster converges to is the
// set a single node would have produced — the property the differential
// tests pin down (modulo maxBlock truncation, which can select different
// candidate subsets when a block is split across shards; see DESIGN.md).

import (
	"time"

	"scdb/internal/model"
)

// Digest is the cross-process form of one locally indexed entity: exactly
// the evidence pairScore consumes (normalized value tokens and normalized
// attribute strings), keyed by the stable (source, key) identity instead
// of the shard-local graph ID, which has no meaning on other nodes.
type Digest struct {
	Source string
	Key    string
	// Tokens are the normalized, sorted, deduplicated value tokens — the
	// blocking keys and the embedding both derive from them, so the
	// receiver reconstructs candidate generation without further state.
	Tokens []string
	// Attrs are the normalized attribute texts, sorted by name.
	Attrs Attrs
}

// RefKey names an entity across process boundaries.
type RefKey struct {
	Source string
	Key    string
}

// DigestBatch is one incremental pull of a shard's resolver state: the
// entities indexed and the duplicate pairs accepted since the caller's
// last watermarks, plus the new watermarks. Merges convey the shard's
// local cluster structure pair by pair; the receiver's union-find takes
// the transitive closure, so shipping only the increments is lossless.
// An er_digests reply carries it in the wire's binary codec
// (server.EncodeV2DigestsResult).
type DigestBatch struct {
	Digests []Digest
	Merges  [][2]RefKey
	// Ents and Matches are the resolver's totals after this batch — the
	// watermarks to pass to the next DigestsSince call.
	Ents    int
	Matches int
	// Settings carry the resolver's blocking mode, which the router builds
	// its exchange from.
	Settings Config
}

// DigestsSince exports the entities indexed and the matches accepted at or
// past the given watermarks (0, 0 exports everything). The caller
// synchronizes with writers the same way Stats does: the curation
// pipeline calls this under its own mutex.
func (r *Resolver) DigestsSince(entsSince, matchesSince int) DigestBatch {
	b := DigestBatch{Ents: len(r.ents), Matches: len(r.matches), Settings: Config{Blocking: r.cfg.Blocking}}
	if entsSince < 0 {
		entsSince = 0
	}
	if matchesSince < 0 {
		matchesSince = 0
	}
	if n := len(r.ents) - entsSince; n > 0 {
		b.Digests = make([]Digest, 0, n)
	}
	if n := len(r.matches) - matchesSince; n > 0 {
		b.Merges = make([][2]RefKey, 0, n)
	}
	for i := entsSince; i < len(r.ents); i++ {
		ix := &r.ents[i]
		b.Digests = append(b.Digests, Digest{
			Source: ix.source,
			Key:    ix.key,
			Tokens: ix.tokens,
			Attrs:  ix.attrs,
		})
	}
	for i := matchesSince; i < len(r.matches); i++ {
		m := r.matches[i]
		ra, aok := r.refOf(m.A)
		rb, bok := r.refOf(m.B)
		if aok && bok {
			b.Merges = append(b.Merges, [2]RefKey{ra, rb})
		}
	}
	return b
}

// refOf maps a graph ID back to its stable cross-process identity.
func (r *Resolver) refOf(id model.EntityID) (RefKey, bool) {
	pos, ok := r.byID[id]
	if !ok {
		return RefKey{}, false
	}
	ix := &r.ents[pos]
	return RefKey{Source: ix.source, Key: ix.key}, true
}

// digestIndexed rebuilds the resolver's internal representation from a
// digest: tokens and attrs arrive pre-normalized and are kept as they are
// (a decoded batch caps each digest's at its length), so only the per-value
// similarity derivations (vals, their tokens and trigram sets) are
// recomputed, into ranges carved from the arena as index carves them.
func digestIndexed(d Digest, a *arena) indexed {
	ix := indexed{key: d.Key, source: d.Source, tokens: d.Tokens, attrs: d.Attrs}
	var n need
	for _, at := range ix.attrs {
		n.value(at.Text, false)
	}
	ix.derive(a.carve(n), false)
	return ix
}

// Exchange is the router-side half of cross-shard ER: a Resolver whose
// entities are digests. Digest batches from every shard stream in
// (AddBatch); each new digest goes through the resolver's own Prepare and
// Commit, so candidate generation, scoring, the advisor and the counters are
// the ones the shards run locally. The one difference is the never-pair
// rule: same-shard pairs are the local resolvers' job, so the exchange never
// scores them either. Two union-finds track cluster structure: ufLocal
// holds only the shards' own merges, and the resolver's union-find (ufAll)
// additionally holds the accepted cross-shard pairs, so clusters(ufLocal) −
// clusters(ufAll) is exactly the number of entity merges the cluster would
// lose without the exchange — the correction the router applies to the
// summed per-shard entity counts.
//
// Exchange is not goroutine-safe; the router serializes AddBatch and
// Stats under its own mutex.
type Exchange struct {
	res     *Resolver      // entity i is the digest at position i, under ID xid(i)
	byRef   map[RefKey]int // digest identity → position
	ufLocal *UnionFind
}

// NewExchange creates an exchange. Pass the settings the shards report
// (DigestBatch.Settings) so candidate generation agrees across the
// boundary.
func NewExchange(cfg Config) *Exchange {
	res := NewResolver(cfg)
	res.never = func(a, b *indexed) bool { return a.shard == b.shard || a.source == b.source }
	return &Exchange{res: res, byRef: map[RefKey]int{}, ufLocal: NewUnionFind()}
}

// xid maps an element position to its synthetic union-find ID.
func xid(pos int) model.EntityID { return model.EntityID(pos + 1) }

// AddBatch folds one shard's digest batch in: digests first (they may be
// referenced by this batch's merges), then the shard's local merge pairs.
// Re-pulling an already-seen digest is a no-op, so the exchange is
// idempotent across router restarts that reset the watermarks to zero.
func (x *Exchange) AddBatch(shard int, b DigestBatch) {
	for _, d := range b.Digests {
		x.addDigest(shard, d)
	}
	for _, m := range b.Merges {
		// A merge whose digest has not arrived registers as an empty digest
		// (defensive: DigestsSince snapshots ents and matches together, so
		// in-order batches always carry the digest first).
		a := xid(x.addDigest(shard, Digest{Source: m[0].Source, Key: m[0].Key}))
		bb := xid(x.addDigest(shard, Digest{Source: m[1].Source, Key: m[1].Key}))
		x.ufLocal.Union(a, bb)
		x.res.uf.Union(a, bb)
	}
}

// addDigest resolves one digest against the other shards' digests and
// returns its position; a digest already seen keeps its position.
func (x *Exchange) addDigest(shard int, d Digest) int {
	ref := RefKey{Source: d.Source, Key: d.Key}
	if pos, ok := x.byRef[ref]; ok {
		return pos
	}
	ix := digestIndexed(d, &x.res.arena)
	ix.shard = shard
	pos := len(x.res.ents)
	x.res.Commit(x.res.prepare(ix, time.Now()), xid(pos))
	x.byRef[ref] = pos
	x.ufLocal.Find(xid(pos))
	return pos
}

// SameRef reports whether two entities — possibly on different shards —
// resolved to one global cluster.
func (x *Exchange) SameRef(a, b RefKey) bool {
	pa, aok := x.byRef[a]
	pb, bok := x.byRef[b]
	return aok && bok && x.res.Same(xid(pa), xid(pb))
}

// ExchangeStats snapshots the exchange's work counters.
type ExchangeStats struct {
	// Digests counts entities exchanged (one per distinct (source, key)).
	Digests int
	// Comparisons/Candidates/Accepted count cross-shard pair scoring work,
	// in the same units as the local resolver's Stats: Candidates are the
	// scorable pairs gathered, so same-shard and same-source digests, which
	// the exchange never pairs, are not in it.
	Comparisons int
	Candidates  int
	Accepted    int
	// ANNProbes/BlockSkips mirror the local resolver's counters for the
	// exchange's own candidate generation.
	ANNProbes  int
	BlockSkips int
	// Clusters is the global entity count across the whole cluster: local
	// and cross-shard merges both collapse clusters.
	Clusters int
	// CrossMerges is how many merges exist only because of the exchange —
	// the correction to subtract from the summed per-shard entity counts.
	CrossMerges int
}

// Stats computes the current counters. Cluster counting walks every
// element (near-linear with union-find compression).
func (x *Exchange) Stats() ExchangeStats {
	rs := x.res.Stats()
	local := x.countClusters(x.ufLocal)
	all := x.countClusters(x.res.uf)
	return ExchangeStats{
		Digests:     len(x.res.ents),
		Comparisons: rs.Comparisons,
		Candidates:  rs.Candidates,
		Accepted:    rs.Matches,
		ANNProbes:   rs.ANNProbes,
		BlockSkips:  rs.BlockSkips,
		Clusters:    all,
		CrossMerges: local - all,
	}
}

func (x *Exchange) countClusters(uf *UnionFind) int {
	roots := map[model.EntityID]bool{}
	for pos := range x.res.ents {
		roots[uf.Find(xid(pos))] = true
	}
	return len(roots)
}
