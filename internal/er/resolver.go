package er

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

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
// (the cross-process identity DigestsSince exports for cross-shard ER).
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
	blocks  map[string][]int // blocking key → indexes into ents
	ents    []indexed
	byID    map[model.EntityID]int
	uf      *UnionFind
	ann     *annIndex
	matches []Match
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
		blocks: make(map[string][]int),
		byID:   make(map[model.EntityID]int),
		uf:     NewUnionFind(),
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

// index extracts the comparable representation of an entity. Each value is
// normalized and split once; the entity's tokens are gathered in a buffer
// that stays on the stack for an entity of ordinary width.
func index(e *model.Entity) indexed {
	ix := indexed{id: e.ID, key: e.Key, source: e.Source}
	for k, v := range e.Attrs {
		if v.IsNull() {
			continue
		}
		if text := Normalize(v.Text()); text != "" {
			if ix.attrs == nil {
				ix.attrs = make(Attrs, 0, len(e.Attrs))
			}
			ix.attrs = append(ix.attrs, AttrText{Name: k, Text: text})
		}
	}
	sortAttrs(ix.attrs)
	var buf [32]string
	tokens := buf[:0]
	for _, at := range ix.attrs {
		fields := strings.Fields(at.Text)
		tokens = append(tokens, fields...)
		if len(at.Text) >= minIdentifyingLen {
			ix.vals = append(ix.vals, newAttrVal(at.Text, fields))
		}
	}
	if len(tokens) > 0 { // none stays nil, as a digest decodes it
		ix.tokens = slices.Clone(sortedUnique(tokens))
	}
	return ix
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

// blockKeys derives the blocking keys of an indexed entity: the prefix of
// every token. The tokens are sorted, so their prefixes are too, and equal
// keys are neighbours.
func (r *Resolver) blockKeys(ix indexed) []string {
	keys := make([]string, 0, len(ix.tokens))
	for _, t := range ix.tokens {
		if k := runePrefix(t, blockPrefix); len(keys) == 0 || keys[len(keys)-1] != k {
			keys = append(keys, k)
		}
	}
	return keys
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
func pairScore(a *indexed, am []matchMasks, b *indexed) float64 {
	if len(a.tokens) == 0 || len(b.tokens) == 0 {
		return 0
	}
	inter := intersection(a.tokens, b.tokens)
	score := float64(inter) / float64(len(a.tokens)+len(b.tokens)-inter)
	if c := float64(inter) / float64(min(len(a.tokens), len(b.tokens))); c > score {
		score = c
	}
	if score >= 1 {
		return 1 // exact containment: the fuzzy measures cannot improve it
	}
	for i := range a.vals {
		for j := range b.vals {
			if s := valSim(&a.vals[i], &am[i], &b.vals[j]); s > score {
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
}

var scratchPool = sync.Pool{New: func() any { return &scratch{seen: map[int]struct{}{}} }}

func (sc *scratch) release() {
	clear(sc.seen)
	sc.cands = sc.cands[:0]
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
// Commit in record order.
type Prepared struct {
	ix     indexed
	keys   []string    // token blocking keys (token/both modes)
	vec    []float32   // embedding (ann/both modes)
	cands  []candidate // scored candidates, in serial candidate order
	probes int         // ANN bucket members examined
	skips  int         // candidate slots dropped by the maxBlock cap

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

// Prepare runs candidate generation and pair scoring for one arriving
// entity against the resolver's committed state, without mutating it. The
// entity's ID need not be final yet (Commit assigns it).
func (r *Resolver) Prepare(e *model.Entity) *Prepared {
	start := time.Now()
	return r.prepare(index(e), start)
}

// prepare is Prepare from an already-indexed entity (the Exchange's digests
// arrive pre-normalized). start is when work on the entity began, so that
// BlockDur covers indexing as well.
func (r *Resolver) prepare(ix indexed, start time.Time) *Prepared {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	p := &Prepared{ix: ix}
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
	p.cands = make([]candidate, len(sc.cands))
	for i, ci := range sc.cands {
		cand := &r.ents[ci]
		s := pairScore(&p.ix, sc.masks, cand)
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
		p.keys = r.blockKeys(p.ix)
		for _, key := range p.keys {
			block := r.blocks[key]
			if len(block) > maxBlock {
				p.skips += len(block) - maxBlock
				block = block[:maxBlock]
			}
			for _, ci := range block {
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
		p.vec = embedTokens(p.ix.tokens)
		// Never-paired positions are filtered before the top-K cut: they
		// can never match, and ranking them would let a burst of sibling
		// records crowd real neighbors out of K (it would also make the
		// parallel snapshot diverge from a serial pass). Positions the token
		// blocks selected are in sc.seen and are not ranked again.
		sc.cands, p.probes = r.ann.topK(sc.cands, p.vec, sc.seen, func(pos int) bool {
			return r.neverPair(&p.ix, &r.ents[pos])
		})
	}
}

// Commit applies a Prepared entity under its final ID, in record order:
// candidates are walked in the serial order, pairs already clustered are
// skipped (without counting), accepted pairs are unioned, and the entity
// is indexed (blocks, ANN, union-find) for future arrivals. The resulting
// state — clusters, matches, and the Comparisons counter — is identical
// to a serial Add of the same record sequence.
func (r *Resolver) Commit(p *Prepared, id model.EntityID) []Match {
	p.ix.id = id
	pos := len(r.ents)
	var found []Match
	for _, c := range p.cands {
		cand := &r.ents[c.pos]
		if r.uf.Same(cand.id, id) {
			continue
		}
		r.Comparisons++
		if c.accept {
			r.uf.Union(id, cand.id)
			found = append(found, Match{A: cand.id, B: id, Score: c.score})
		}
	}
	r.candidates += len(p.cands)
	r.annProbes += p.probes
	r.blockSkips += p.skips
	for _, key := range p.keys {
		r.blocks[key] = append(r.blocks[key], pos)
	}
	if r.useANN() {
		r.ann.add(pos, p.vec)
	}
	r.ents = append(r.ents, p.ix)
	r.byID[id] = pos
	r.uf.Find(id)
	r.matches = append(r.matches, found...)
	return found
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
