package er

import (
	"cmp"
	"slices"
)

// The ANN index approximates "which already-curated entities are nearest
// in embedding space?" with random-hyperplane LSH: each entity's unit
// vector is reduced to a short signature of sign bits (one bit per
// hyperplane), once per table. Entities sharing a signature in any table
// land in one bucket, and a query gathers its buckets' members and
// reranks them by exact cosine to keep the top K. Insertion is O(tables ·
// bits · embedDim) — incremental, matching the resolver's
// one-entity-at-a-time ingestion — and the hyperplanes are generated from a
// fixed seed, so the index is deterministic across processes.
const (
	annTables = 8 // independent hash tables (recall amplification)
	annBits   = 8 // hyperplanes (signature bits) per table
	topK      = 8 // ANN neighbors kept per entity under BlockingANN/Both
)

type annIndex struct {
	planes  [][]float32          // annTables*annBits hyperplanes, row-major
	buckets []map[uint32][]int32 // per table: signature → entity positions
	vecs    [][]float32          // position → embedding, carved from the resolver's arena (append-only)
}

// splitmix64 steps the seed and returns the next pseudo-random word — the
// only randomness source here, so hyperplanes are identical on every run.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	return mix64(*state)
}

func newANNIndex() *annIndex {
	a := &annIndex{
		planes:  make([][]float32, annTables*annBits),
		buckets: make([]map[uint32][]int32, annTables),
	}
	seed := uint64(0x5cdb5cdb5cdb5cdb)
	for i := range a.planes {
		p := make([]float32, embedDim)
		for j := range p {
			// Uniform in [-1, 1): direction is all that matters for a
			// sign test, so no Gaussian shaping is needed.
			p[j] = float32(splitmix64(&seed)>>11)/float32(1<<52) - 1
		}
		a.planes[i] = p
	}
	for t := range a.buckets {
		a.buckets[t] = make(map[uint32][]int32)
	}
	return a
}

// signature computes the sign-bit signature of vec under table t's planes.
func (a *annIndex) signature(t int, vec []float32) uint32 {
	var sig uint32
	base := t * annBits
	for b := 0; b < annBits; b++ {
		if dot(a.planes[base+b], vec) >= 0 {
			sig |= 1 << b
		}
	}
	return sig
}

// add indexes the vector under position pos (positions must arrive in
// order; pos == len(vecs)).
func (a *annIndex) add(pos int, vec []float32) {
	a.vecs = append(a.vecs, vec)
	for t := 0; t < annTables; t++ {
		sig := a.signature(t, vec)
		a.buckets[t][sig] = append(a.buckets[t][sig], int32(pos))
	}
}

// ranked is one bucket member of an ANN probe with its cosine to the query.
type ranked struct {
	pos int
	sim float64
}

// topK appends to dst up to topK indexed positions nearest to vec by cosine,
// gathered from the query's LSH buckets into *rank (the caller's scratch)
// and reranked exactly. A position in seen (one the resolver's token blocks
// already selected) is not a candidate, nor is one never reports (a
// same-source entity); every bucket member examined joins seen, so a
// position several tables share is ranked once. probed reports how many
// bucket members were ranked — the er.ann_probes work metric. Order is
// deterministic: cosine descending, position ascending on ties.
func (a *annIndex) topK(dst []int, rank *[]ranked, vec []float32, seen map[int]struct{}, never func(pos int) bool) (nbrs []int, probed int) {
	if len(a.vecs) == 0 {
		return dst, 0
	}
	cands := (*rank)[:0]
	for t := 0; t < annTables; t++ {
		for _, p := range a.buckets[t][a.signature(t, vec)] {
			pos := int(p)
			if _, dup := seen[pos]; dup {
				continue
			}
			seen[pos] = struct{}{}
			if never(pos) {
				continue
			}
			cands = append(cands, ranked{pos: pos, sim: dot(vec, a.vecs[pos])})
		}
	}
	slices.SortFunc(cands, func(x, y ranked) int {
		if c := cmp.Compare(y.sim, x.sim); c != 0 {
			return c
		}
		return cmp.Compare(x.pos, y.pos)
	})
	for _, c := range cands[:min(len(cands), topK)] {
		dst = append(dst, c.pos)
	}
	*rank = cands
	return dst, len(cands)
}
