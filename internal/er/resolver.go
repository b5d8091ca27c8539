package er

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
	"unsafe"

	"scdb/internal/model"
)

// BlockingMode selects how candidate sets are generated. An er_digests
// reply carries the mode as one byte of this numbering, so a new mode goes
// at the end.
type BlockingMode int

const (
	// BlockingToken (the zero value) is classic token-prefix blocking:
	// candidates share at least one token prefix. Cheap and byte-stable —
	// the compatibility baseline — but blind to typos in every leading
	// prefix and unbounded on stop-word-like keys until the maxBlock cap
	// truncates them.
	BlockingToken BlockingMode = iota
	// BlockingANN replaces token blocks with the embedding index: the
	// candidate set is the top-K cosine neighbors, so cost per entity is
	// bounded by K and early-character typos no longer hide duplicates.
	BlockingANN
	// BlockingBoth unions token-block hits with the ANN top-K — maximum
	// recall at the cost of both stages.
	BlockingBoth
)

// ParseBlocking maps the flag spelling ("token", "ann", "both") to a
// mode; "" means BlockingToken.
func ParseBlocking(s string) (BlockingMode, error) {
	switch s {
	case "", "token":
		return BlockingToken, nil
	case "ann":
		return BlockingANN, nil
	case "both":
		return BlockingBoth, nil
	}
	return 0, fmt.Errorf("er: unknown blocking mode %q (want token, ann, or both)", s)
}

// String names the mode as ParseBlocking spells it.
func (m BlockingMode) String() string {
	switch m {
	case BlockingANN:
		return "ann"
	case BlockingBoth:
		return "both"
	}
	return "token"
}

// The resolver's tuning is fixed: entity resolution works across schemata
// without prior knowledge of them, so nothing here is an operator's setting.
const (
	// threshold is the minimum pair score the default advisor treats as a
	// match.
	threshold = 0.85
	// blockPrefix is the blocking-key length in characters (runes). Each
	// token of each string attribute contributes its prefix as a blocking
	// key, so only entities sharing at least one key are ever compared.
	blockPrefix = 4
	// maxBlock caps the number of candidates considered per blocking key;
	// oversized blocks (stop-word-like keys) are skipped beyond the cap,
	// trading recall for bounded cost.
	maxBlock = 64
)

// Config configures the resolver. Blocking is the one setting a cross-shard
// exchange must share with the shards' local resolvers; a shard ships it in
// every DigestBatch.
type Config struct {
	// Blocking selects the candidate-generation strategy (default
	// BlockingToken).
	Blocking BlockingMode
	// Advisor reviews scored candidate pairs (nil = ThresholdAdvisor at the
	// resolver's threshold). See CurationAdvisor for the purity contract.
	Advisor CurationAdvisor
	// DisableBlocking compares every new entity against every indexed
	// entity — the quadratic ablation baseline for the blocking design
	// choice (see DESIGN.md).
	DisableBlocking bool
}

// Match is one resolved duplicate pair with its similarity score.
type Match struct {
	A, B  model.EntityID
	Score float64
}

// indexed holds what the resolver retains per entity: the normalized value
// tokens, the per-attribute normalized strings, and the source-local key
// (the cross-process identity DigestsSince exports for cross-shard ER). An
// indexed entity allocates nothing of its own: its attribute texts are
// substrings of one normal-form string over the resolver's arena bytes, and
// its attrs, vals, every token slice (the entity's and each value's) and
// every trigram set are ranges carved from the same arena, each capped at
// its length.
type indexed struct {
	id     model.EntityID
	key    string
	source string
	shard  int // owning shard, inside the cross-shard Exchange; 0 locally
	tokens []string
	attrs  Attrs
	// vals caches the per-value similarity derivations (tokens, trigram
	// set, rune count) of every identifying-length value, so pair scoring —
	// the ingest hot path — never re-normalizes or re-tokenizes a value per
	// comparison.
	vals []attrVal
}

// Resolver performs incremental entity resolution: entities are added one
// at a time (or source by source) and each addition is compared only
// against the candidates its blocking keys (and, under BlockingANN/Both,
// its embedding neighbors) select. The resolver is schema-agnostic — it
// compares bags of normalized values, so sources with different attribute
// names still match (FS.1's "across different schemata without requiring
// prior knowledge").
//
// Addition splits into a pure half and an ordered half: Prepare reads the
// committed state only (candidate generation + pair scoring — safe to fan
// out across workers against an immutable snapshot), Commit applies the
// order-sensitive effects (union-find, block/ANN insertion, counters) in
// strict record order. Add is exactly Prepare followed by Commit, so a
// serial pass and a parallel pass over the same records produce identical
// state.
type Resolver struct {
	cfg     Config
	blocks  map[string]block // blocking key → its postings
	slab    []int32          // unused room small blocks are carved from
	ents    []indexed
	byID    map[model.EntityID]int
	uf      *UnionFind
	ann     *annIndex
	matches []Match
	arena   arena // what ents and ann keep, carved for each arrival
	// Comparisons counts candidate pairs logically scored — the work
	// metric the incremental-vs-batch experiment (E-FS1) reports. It is
	// counted at commit time under the serial skip rules, so it is
	// identical for serial and parallel scoring.
	Comparisons int

	candidates int // scorable candidate pairs gathered (pre union-find filtering)
	annProbes  int // ANN bucket members examined during rerank
	blockSkips int // candidate slots dropped by the maxBlock cap

	// never, when set, replaces the same-source rule of neverPair (the
	// cross-shard Exchange adds "same shard").
	never func(a, b *indexed) bool
	// floor is the least score whose exact value a verdict needs (pairScore):
	// a ThresholdAdvisor's threshold, below which it rejects whatever the
	// score, and 0 for any other advisor, whose Accept may read every score.
	floor float64
}

// neverPair reports a pair that is never scored. Sources are assumed
// internally duplicate-free, so two records of one source never match. The
// rule holds in one place, candidate generation (gather): a never-pair is not
// gathered, so everything Prepare scores and Commit counts is scorable. A
// token block applies it after the maxBlock cut — the cut takes the block's
// first maxBlock members whoever they are, and only then are the never-pairs
// among them dropped — because filtering first would hand their slots to
// later, scorable members and change which pairs merge.
func (r *Resolver) neverPair(a, b *indexed) bool {
	if r.never != nil {
		return r.never(a, b)
	}
	return a.source == b.source
}

// NewResolver creates a resolver with the given configuration.
func NewResolver(cfg Config) *Resolver {
	if cfg.Advisor == nil {
		cfg.Advisor = ThresholdAdvisor{Threshold: threshold}
	}
	r := &Resolver{
		cfg:    cfg,
		blocks: make(map[string]block),
		byID:   make(map[model.EntityID]int),
		uf:     NewUnionFind(),
	}
	if t, ok := cfg.Advisor.(ThresholdAdvisor); ok {
		r.floor = t.Threshold
	}
	if r.useANN() {
		r.ann = newANNIndex()
	}
	return r
}

func (r *Resolver) useANN() bool {
	return !r.cfg.DisableBlocking && (r.cfg.Blocking == BlockingANN || r.cfg.Blocking == BlockingBoth)
}

func (r *Resolver) useTokenBlocks() bool {
	return !r.cfg.DisableBlocking && (r.cfg.Blocking == BlockingToken || r.cfg.Blocking == BlockingBoth)
}

// Stats is a snapshot of the resolver's work counters (exported into the
// obs metrics registry and the CLI \stats curation line).
type Stats struct {
	// Comparisons counts candidate pairs logically scored.
	Comparisons int
	// Candidates counts the scorable candidate pairs gathered by
	// blocking/ANN, before union-find filtering. Never-pairs (same source)
	// are not gathered, so a single-source load counts zero.
	Candidates int
	// ANNProbes counts ANN bucket members examined during cosine rerank.
	ANNProbes int
	// Blocks is the number of distinct blocking keys indexed.
	Blocks int
	// BlockSkips counts candidate slots dropped by the maxBlock cap
	// (oversized, stop-word-like blocks).
	BlockSkips int
	// Matches is the number of duplicate pairs accepted so far.
	Matches int
}

// Stats returns the current work counters. Callers synchronize with
// writers (the curation pipeline reads under its own mutex).
func (r *Resolver) Stats() Stats {
	return Stats{
		Comparisons: r.Comparisons,
		Candidates:  r.candidates,
		ANNProbes:   r.annProbes,
		Blocks:      len(r.blocks),
		BlockSkips:  r.blockSkips,
		Matches:     len(r.matches),
	}
}

// index extracts the comparable representation of an entity. The values are
// normalized into one buffer, which stays on the stack for an entity of
// ordinary width; a first pass counts every range the entity keeps, and then
// one carve from the arena holds them all: the normal-form bytes, which
// become the entity's one normal-form string, its attrs, and what derive
// makes. A stored row's own columns (model.IsRowColumn) are not the entity's
// attributes.
func index(e *model.Entity, a *arena) indexed {
	ix := indexed{id: e.ID, key: e.Key, source: e.Source}
	type pending struct {
		name, raw string
		lo, hi    int // the normal form's bytes in buf
	}
	var pbuf [16]pending
	ps := pbuf[:0]
	for k, v := range e.Attrs {
		if !v.IsNull() && !model.IsRowColumn(k) {
			ps = append(ps, pending{name: k, raw: v.Text()})
		}
	}
	slices.SortFunc(ps, func(x, y pending) int { return strings.Compare(x.name, y.name) })
	var nbuf [256]byte
	buf := nbuf[:0]
	for i := range ps {
		ps[i].lo = len(buf)
		buf = appendNormal(buf, ps[i].raw)
		ps[i].hi = len(buf)
	}
	// Counted over the buffer itself, which nothing writes before the copy.
	n := need{bytes: len(buf)}
	for _, p := range ps {
		if p.hi > p.lo {
			n.attrs++
			n.value(unsafe.String(&buf[p.lo], p.hi-p.lo), true)
		}
	}
	if n.attrs == 0 {
		return ix
	}
	rm := a.carve(n)
	b := append(rm.bytes, buf...)
	norm := unsafe.String(unsafe.SliceData(b), len(b))
	ix.attrs = rm.attrs
	for _, p := range ps {
		if p.hi > p.lo {
			ix.attrs = append(ix.attrs, AttrText{Name: p.name, Text: norm[p.lo:p.hi]})
		}
	}
	ix.derive(rm, true)
	return ix
}

// derive fills ix.vals from ix.attrs, and ix.tokens too when withTokens is
// set (a digest brings its own), in rm, carved to what need.value counted
// for the same attrs: the token range holds every identifying value's tokens
// and digits and then the entity's token set, the trigram range every
// identifying value's trigrams. A non-identifying value's fields are in the
// token range only as members of the entity's token set.
func (ix *indexed) derive(rm room, withTokens bool) {
	toks, tris := rm.strs, rm.tris
	ix.vals = rm.vals
	for _, at := range ix.attrs {
		if len(at.Text) >= minIdentifyingLen {
			var v attrVal
			v, toks, tris = deriveVal(at.Text, toks, tris)
			ix.vals = append(ix.vals, v)
		}
	}
	if !withTokens {
		return
	}
	lo := len(toks)
	for _, at := range ix.attrs {
		for f, i := nextField(at.Text, 0); f != ""; f, i = nextField(at.Text, i) {
			toks = append(toks, f)
		}
	}
	if set := sortedUnique(toks[lo:]); len(set) > 0 { // none stays nil, as a digest decodes it
		ix.tokens = set[:len(set):len(set)]
	}
}

// runePrefix returns the first n runes of s. Byte slicing would split a
// multi-byte UTF-8 rune mid-sequence and produce invalid blocking keys on
// non-ASCII attributes.
func runePrefix(s string, n int) string {
	if len(s) <= n {
		return s // n bytes always cover at least n runes
	}
	seen := 0
	for i := range s {
		if seen == n {
			return s[:i]
		}
		seen++
	}
	return s
}

// blockKeys appends the blocking keys of an indexed entity to keys: the
// prefix of every token. The tokens are sorted, so their prefixes are too,
// and equal keys are neighbours.
func blockKeys(keys []string, ix *indexed) []string {
	for _, t := range ix.tokens {
		if k := runePrefix(t, blockPrefix); len(keys) == 0 || keys[len(keys)-1] != k {
			keys = append(keys, k)
		}
	}
	return keys
}

// block is one blocking key's postings. gather never reads a member past the
// maxBlock cut and BlockSkips needs only how many there are, so a block keeps
// the positions of its first maxBlock members and its member count.
type block struct {
	pos []int32 // the first min(n, maxBlock) members' positions, in order
	n   int     // members
}

// slabSize is how many positions a slab holds, and smallBlock the largest
// postings array carved from one: a block starts at two slots and doubles,
// from the slab up to smallBlock and from the heap past it. A block that
// grows abandons its old slots, at most 2+4 of them, in the slab.
const (
	slabSize   = 1024
	smallBlock = 8
)

// addToBlock appends pos to the block of key. The members the block holds
// past the maxBlock cut are the candidate slots the arrival at pos skipped:
// counted here, at Commit, they count as a serial Add does, however the
// arrivals were prepared.
func (r *Resolver) addToBlock(key string, pos int) {
	b := r.blocks[key]
	r.blockSkips += b.n - len(b.pos)
	b.n++
	if len(b.pos) == maxBlock {
		r.blocks[key] = b
		return
	}
	if len(b.pos) == cap(b.pos) {
		c := min(max(2*cap(b.pos), 2), maxBlock)
		grown := r.carve(c)
		copy(grown, b.pos)
		b.pos = grown[:len(b.pos)]
	}
	b.pos = append(b.pos, int32(pos))
	r.blocks[key] = b
}

// carve returns room for n positions: from the slab when n is at most
// smallBlock, from the heap otherwise.
func (r *Resolver) carve(n int) []int32 {
	if n > smallBlock {
		return make([]int32, n)
	}
	if len(r.slab) < n {
		r.slab = make([]int32, slabSize)
	}
	room := r.slab[:n:n]
	r.slab = r.slab[n:]
	return room
}

// minIdentifyingLen is the minimum normalized length for an attribute
// value to count as identifying in pairwise scoring: very short values
// ("emea", "ok") are categorical, shared by many distinct entities, and
// must not produce perfect-match evidence on their own.
const minIdentifyingLen = 6

// pairScore computes the similarity of two indexed entities: the maximum
// over (best matching identifying-attribute pair, whole-record token
// Jaccard, token-set containment), so a strong identifying attribute (a
// name), overall value overlap, and one record extending the other
// ("Ibuprofen" vs "Ibuprofen (Advil)") all count. Short categorical values
// contribute only through the whole-record measures. An entity without a
// token (every attribute null, empty or punctuation) is no evidence, and no
// evidence is not a match: it scores 0 against anything. am[i] holds the
// match masks of a.vals[i]; everything else was derived at index time, so a
// pair costs no allocation.
//
// The score is exact whenever it is at least floor, and some value below
// floor otherwise: the token merge stops once containment, which bounds
// Jaccard from above, cannot reach floor, and each value pair is held
// against the larger of floor and the best score so far (valSim).
func pairScore(a *indexed, am []matchMasks, b *indexed, floor float64) float64 {
	if len(a.tokens) == 0 || len(b.tokens) == 0 {
		return 0
	}
	small := min(len(a.tokens), len(b.tokens))
	inter := intersection(a.tokens, b.tokens, atLeast(floor, float64(small)))
	score := float64(inter) / float64(len(a.tokens)+len(b.tokens)-inter)
	if c := float64(inter) / float64(small); c > score {
		score = c
	}
	if score >= 1 {
		return 1 // exact containment: the fuzzy measures cannot improve it
	}
	for i := range a.vals {
		for j := range b.vals {
			if s := valSim(&a.vals[i], &am[i], &b.vals[j], max(floor, score)); s > score {
				score = s
				if score == 1 {
					return 1
				}
			}
		}
	}
	return score
}

// scratch is the working memory of one Prepare that nothing outlives: it is
// drawn from a pool, so preparing an entity allocates what the entity keeps
// and nothing per candidate. A scratch belongs to one Prepare at a time.
type scratch struct {
	masks []matchMasks     // match masks of the arriving entity's vals
	seen  map[int]struct{} // positions already gathered or ruled out
	cands []int            // gathered positions, in first-occurrence order
	rank  []ranked         // the ANN probe's bucket members, by cosine
}

var scratchPool = sync.Pool{New: func() any { return &scratch{seen: map[int]struct{}{}} }}

func (sc *scratch) release() {
	clear(sc.seen)
	sc.cands, sc.rank = sc.cands[:0], sc.rank[:0]
	scratchPool.Put(sc)
}

// candidate is one gathered position with what scoring decided about it.
type candidate struct {
	pos    int
	score  float64
	accept bool // the advisor's verdict
}

// Prepared carries the pure half of one entity's resolution: its index
// representation, blocking keys, embedding, and the scored candidate set —
// everything computable from the resolver's committed state without
// mutating it. Prepare calls for distinct entities may run concurrently
// (against the same frozen resolver); each Prepared is then handed to
// Commit in record order, or to Release. Commit consumes it: the index
// representation passes to the resolver and a copy of the embedding to the
// ANN index, and the Prepared, with its keys, embedding and candidate
// arrays, goes back to a pool the next Prepare draws from.
type Prepared struct {
	ix     indexed
	keys   []string    // token blocking keys (token/both modes)
	vec    []float32   // embedding (ann/both modes); Commit keeps a copy
	cands  []candidate // scored candidates, in serial candidate order
	probes int         // ANN bucket members examined

	blockDur time.Duration // candidate generation (blocking + ANN probe)
	scoreDur time.Duration // pair scoring + advisor review
}

// BlockDur reports time spent generating this entity's candidate set.
func (p *Prepared) BlockDur() time.Duration { return p.blockDur }

// ScoreDur reports time spent scoring this entity's candidate pairs.
func (p *Prepared) ScoreDur() time.Duration { return p.scoreDur }

// Candidates reports the size of the gathered candidate set.
func (p *Prepared) Candidates() int { return len(p.cands) }

// Attrs returns the normalized texts of the entity's attributes, sorted by
// name: the one normal form made of each value, for callers that index the
// same values. They are shared with the resolver and must not be mutated.
func (p *Prepared) Attrs() Attrs { return p.ix.attrs }

var preparedPool = sync.Pool{New: func() any { return new(Prepared) }}

// Release returns p to the pool without committing it, for a caller that
// resolves the entity another way (the curation pipeline re-scores a
// re-delivered key through Add). p is dead once Release returns. What
// Prepare carved from the resolver's arena for p's index stays there: its
// normal forms may be held by the caller (Attrs), and the arena never hands
// a range out twice.
func (p *Prepared) Release() {
	*p = Prepared{keys: p.keys[:0], vec: p.vec, cands: p.cands[:0]}
	preparedPool.Put(p)
}

// Prepare runs candidate generation and pair scoring for one arriving
// entity against the resolver's committed state, without mutating it. The
// entity's ID need not be final yet (Commit assigns it).
func (r *Resolver) Prepare(e *model.Entity) *Prepared {
	start := time.Now()
	return r.prepare(index(e, &r.arena), start)
}

// prepare is Prepare from an already-indexed entity (the Exchange's digests
// arrive pre-normalized). start is when work on the entity began, so that
// BlockDur covers indexing as well.
func (r *Resolver) prepare(ix indexed, start time.Time) *Prepared {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	p := preparedPool.Get().(*Prepared)
	p.ix = ix
	r.gather(p, sc)
	p.blockDur = time.Since(start)
	if len(sc.cands) == 0 {
		return p
	}

	start = time.Now()
	sc.masks = slices.Grow(sc.masks[:0], len(p.ix.vals))[:len(p.ix.vals)]
	for i := range p.ix.vals {
		sc.masks[i].build(p.ix.vals[i].text)
	}
	arriving := view(&p.ix)
	p.cands = slices.Grow(p.cands[:0], len(sc.cands))[:len(sc.cands)]
	for i, ci := range sc.cands {
		cand := &r.ents[ci]
		s := pairScore(&p.ix, sc.masks, cand, r.floor)
		p.cands[i] = candidate{pos: ci, score: s, accept: r.cfg.Advisor.Accept(arriving, view(cand), s)}
	}
	p.scoreDur = time.Since(start)
	return p
}

// gather is candidate generation: it fills sc.cands with the positions p.ix
// will be scored against, in serial candidate order, and never with a
// position neverPair rules out.
func (r *Resolver) gather(p *Prepared, sc *scratch) {
	if r.cfg.DisableBlocking {
		for ci := range r.ents {
			if !r.neverPair(&p.ix, &r.ents[ci]) {
				sc.cands = append(sc.cands, ci)
			}
		}
		return
	}
	if r.useTokenBlocks() {
		p.keys = blockKeys(p.keys[:0], &p.ix)
		for _, key := range p.keys {
			for _, pos := range r.blocks[key].pos {
				ci := int(pos)
				if r.neverPair(&p.ix, &r.ents[ci]) {
					continue
				}
				if _, dup := sc.seen[ci]; !dup {
					sc.seen[ci] = struct{}{}
					sc.cands = append(sc.cands, ci)
				}
			}
		}
	}
	if r.useANN() {
		p.vec = embedTokens(p.vec, p.ix.tokens)
		// Never-paired positions are filtered before the top-K cut: they
		// can never match, and ranking them would let a burst of sibling
		// records crowd real neighbors out of K (it would also make the
		// parallel snapshot diverge from a serial pass). Positions the token
		// blocks selected are in sc.seen and are not ranked again.
		sc.cands, p.probes = r.ann.topK(sc.cands, &sc.rank, p.vec, sc.seen, func(pos int) bool {
			return r.neverPair(&p.ix, &r.ents[pos])
		})
	}
}

// Commit applies a Prepared entity under its final ID, in record order:
// candidates are walked in the serial order, pairs already clustered are
// skipped (without counting), accepted pairs are unioned, and the entity
// is indexed (blocks, ANN, union-find) for future arrivals. The resulting
// state — clusters, matches, and the Comparisons counter — is identical
// to a serial Add of the same record sequence. Commit consumes p: it is dead
// once Commit returns, and the caller must not read or commit it again. The
// matches it returns are the tail of Matches, capped at its length, or nil.
func (r *Resolver) Commit(p *Prepared, id model.EntityID) []Match {
	p.ix.id = id
	pos, lo := len(r.ents), len(r.matches)
	for _, c := range p.cands {
		cand := &r.ents[c.pos]
		if r.uf.Same(cand.id, id) {
			continue
		}
		r.Comparisons++
		if c.accept {
			r.uf.Union(id, cand.id)
			r.matches = append(r.matches, Match{A: cand.id, B: id, Score: c.score})
		}
	}
	r.candidates += len(p.cands)
	r.annProbes += p.probes
	for _, key := range p.keys {
		r.addToBlock(key, pos)
	}
	if r.useANN() {
		r.ann.add(pos, r.arena.keepVec(p.vec))
	}
	r.ents = append(r.ents, p.ix)
	r.byID[id] = pos
	r.uf.Find(id)
	p.Release()
	if n := len(r.matches); n > lo {
		return r.matches[lo:n:n]
	}
	return nil
}

// Add is the serial convenience over the Prepare/Commit split: one entity
// is prepared against the committed state and committed immediately under
// its own ID. The parallel ingest path calls the halves separately
// (Prepare fanned out across workers, Commit in record order); both routes
// produce identical resolver state. Entities from the same source are
// never matched to each other (sources are assumed internally
// duplicate-free; the generic dirty-table workload overrides this by
// giving each record its own source).
func (r *Resolver) Add(e *model.Entity) []Match {
	return r.Commit(r.Prepare(e), e.ID)
}

// AddAll resolves a batch of entities in record order via Add.
func (r *Resolver) AddAll(es []*model.Entity) []Match {
	var all []Match
	for _, e := range es {
		all = append(all, r.Add(e)...)
	}
	return all
}

// Matches returns every match found so far.
func (r *Resolver) Matches() []Match { return r.matches }

// Canonical returns the cluster representative of the entity.
func (r *Resolver) Canonical(id model.EntityID) model.EntityID { return r.uf.Find(id) }

// Same reports whether two entities resolved to one cluster.
func (r *Resolver) Same(a, b model.EntityID) bool { return r.uf.Same(a, b) }

// Clusters returns the duplicate clusters (size >= 2).
func (r *Resolver) Clusters() [][]model.EntityID { return r.uf.Clusters(2) }

// ResolveBatch is the non-incremental baseline (the "all-to-all entity
// resolution performed comprehensively across all data sources" the paper
// warns about): it rebuilds a fresh resolver over all entities and returns
// its matches. Cost grows with the full corpus on every call, which is
// exactly what E-FS1 measures against the incremental path.
func ResolveBatch(es []*model.Entity, cfg Config) (*Resolver, []Match) {
	r := NewResolver(cfg)
	return r, r.AddAll(es)
}
