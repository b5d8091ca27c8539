package curate

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scdb/internal/datagen"
	"scdb/internal/er"
	"scdb/internal/extract"
	"scdb/internal/graph"
	"scdb/internal/model"
	"scdb/internal/obs"
	"scdb/internal/ontology"
	"scdb/internal/reason"
	"scdb/internal/storage"
)

// LinkRule tells the pipeline how to resolve a source's literal foreign
// references into relation-layer edges: a literal edge with Predicate is
// matched against entities whose TargetAttrs carry the same (normalized)
// value, producing an EdgePredicate edge.
type LinkRule struct {
	Predicate     string
	EdgePredicate string
	TargetAttrs   []string
	// TargetType optionally restricts matches to entities asserting the
	// concept.
	TargetType string
}

// Stats accumulates pipeline counters.
type Stats struct {
	Datasets        int
	Records         int
	Entities        int
	Edges           int
	LiteralEdges    int
	LinksDiscovered int
	LinksPending    int
	Merges          int
	Extractions     int
	InferredTypes   int
	Witnesses       int
	Inconsistencies int
	// ER mirrors the resolver's work counters (comparisons, candidates,
	// ANN probes, block counts) at snapshot time — filled by
	// Pipeline.Stats, not accumulated here.
	ER er.Stats
}

// pendingLink is a literal reference that found no target yet.
type pendingLink struct {
	from model.EntityID
	rule LinkRule
	val  string
	conf model.Fuzzy
}

// Pipeline wires the layers together. Curation passes serialize on the
// pipeline's own mutex (the resolver, attribute index, pending links, and
// counters have no latches of their own); the structures it feeds — store,
// graph, ontology, reasoner — each carry their own, so queries
// keep reading them while a pass runs.
//
// Lock order: pipeline.mu is never acquired while holding the engine's
// db.mu — core takes them in pipeline-then-db order only.
type Pipeline struct {
	store    *storage.Store
	graph    *graph.Graph
	reasoner *reason.Reasoner
	resolver *er.Resolver
	gaz      *extract.Gazetteer
	patterns []extract.Pattern
	rules    []LinkRule
	workers  int // Prepare fan-out of the relate stage
	chunk    int // records per chunk: ingestChunk (in-package tests shrink it)

	mu sync.Mutex // serializes curation passes; guards all fields below

	// attrIndex maps normalized attribute values to entity IDs, per
	// indexed attribute, for link discovery and mention grounding.
	attrIndex map[string][]model.EntityID
	pending   []pendingLink
	stats     Stats

	// Replay bookkeeping (see rebuild.go).
	seenSources map[string]bool
	seq         int
}

// Config assembles a pipeline.
type Config struct {
	Store     *storage.Store
	Graph     *graph.Graph
	Ontology  *ontology.Ontology
	Reasoner  *reason.Reasoner
	LinkRules []LinkRule
	Patterns  []extract.Pattern
	// Blocking selects entity resolution's candidate generation.
	Blocking er.BlockingMode
	// Parallelism sizes the relate stage's Prepare fan-out: <=0 means one
	// worker per CPU. Curation state is identical for every setting.
	Parallelism int
}

// NewPipeline creates the pipeline.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if cfg.Store == nil || cfg.Graph == nil || cfg.Ontology == nil {
		return nil, fmt.Errorf("curate: store, graph, and ontology are required")
	}
	r := cfg.Reasoner
	if r == nil {
		r = reason.New(cfg.Graph, cfg.Ontology)
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pipeline{
		store:       cfg.Store,
		graph:       cfg.Graph,
		reasoner:    r,
		resolver:    er.NewResolver(er.Config{Blocking: cfg.Blocking}),
		gaz:         extract.NewGazetteer(),
		patterns:    cfg.Patterns,
		rules:       cfg.LinkRules,
		workers:     workers,
		chunk:       ingestChunk,
		attrIndex:   map[string][]model.EntityID{},
		seenSources: map[string]bool{},
	}, nil
}

// Stats returns the accumulated counters plus the resolver's work
// counters at this moment.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.ER = p.resolver.Stats()
	return s
}

// ERDigests exports the resolver's entities and accepted matches past the
// given watermarks for cross-shard exchange, serialized against ingest by
// the pipeline mutex (the resolver itself is not goroutine-safe).
func (p *Pipeline) ERDigests(entsSince, matchesSince int) er.DigestBatch {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resolver.DigestsSince(entsSince, matchesSince)
}

// Reasoner exposes the pipeline's reasoner (the query layer needs it).
func (p *Pipeline) Reasoner() *reason.Reasoner { return p.reasoner }

// Resolver exposes the incremental ER state.
func (p *Pipeline) Resolver() *er.Resolver { return p.resolver }

// ingestChunk is the records-per-chunk granule of a curation pass, live or
// rebuilt: one storage write batch and one Prepare fan-out. It matches the
// storage scan morsel size.
const ingestChunk = 1024

// ErrInvalidDelivery rejects a delivery before any of it is written: an
// entity CheckEntity refuses, or a link naming a key that is neither in the
// delivery nor already curated for its source.
var ErrInvalidDelivery = errors.New("curate: invalid delivery")

// CheckEntity is the per-entity rule of a delivery: an entity has a key,
// and none of its attributes is named like one of the stored row's own
// columns (model.IsRowColumn: _key, _types). The pipeline's validation and
// the router, which checks a public record before it splits a delivery,
// both call it before anything is written.
func CheckEntity[V any](source, key string, attrs map[string]V) error {
	if key == "" {
		return fmt.Errorf("%w: entity without a key in %s", ErrInvalidDelivery, source)
	}
	for name := range attrs {
		if model.IsRowColumn(name) {
			return fmt.Errorf("%w: entity %q in %s names the reserved attribute %q", ErrInvalidDelivery, key, source, name)
		}
	}
	return nil
}

// Delivery is one source delivery as the pipeline takes it.
type Delivery struct {
	Source   string
	Entities []Arrival
	Links    []datagen.LinkSpec
	// Texts carries unstructured documents (for extraction), may be nil.
	Texts []string
}

// Arrival is one entity of a delivery. Its Attrs map is the pipeline's
// from Ingest on: Ingest adds the stored row's own columns, _key and
// _types, to it, and that map is the row storage keeps and the graph
// borrows. A map made with room for len(attrs)+2 entries takes both
// without growing.
type Arrival struct {
	Key   string
	Types []string
	Attrs model.Record
}

// NewDelivery is a delivery of a dataset its caller keeps: each entity's
// attributes are copied into a map of the pipeline's own, so ingesting the
// delivery never writes the dataset.
func NewDelivery(ds datagen.Dataset) Delivery {
	d := Delivery{Source: ds.Source, Entities: make([]Arrival, len(ds.Entities)), Links: ds.Links, Texts: ds.Texts}
	for i, spec := range ds.Entities {
		attrs := make(model.Record, len(spec.Attrs)+2)
		for name, v := range spec.Attrs {
			attrs[name] = v
		}
		d.Entities[i] = Arrival{Key: spec.Key, Types: spec.Types, Attrs: attrs}
	}
	return d
}

// validate checks a delivery against what Ingest and RebuildFromStore
// can curate, so a rejected delivery leaves nothing behind. Caller holds
// p.mu.
func (p *Pipeline) validate(d Delivery) error {
	for _, a := range d.Entities {
		if err := CheckEntity(d.Source, a.Key, a.Attrs); err != nil {
			return err
		}
	}
	if len(d.Links) == 0 {
		return nil
	}
	keys := make(map[string]bool, len(d.Entities))
	for _, a := range d.Entities {
		keys[a.Key] = true
	}
	known := func(key string) bool {
		if keys[key] {
			return true
		}
		_, ok := p.graph.FindByKey(d.Source, key)
		return ok
	}
	for _, l := range d.Links {
		if !known(l.FromKey) {
			return fmt.Errorf("%w: link from unknown key %q in %s", ErrInvalidDelivery, l.FromKey, d.Source)
		}
		if l.ToKey != "" && !known(l.ToKey) {
			return fmt.Errorf("%w: link to unknown key %q in %s", ErrInvalidDelivery, l.ToKey, d.Source)
		}
	}
	return nil
}

// addRowColumns makes an arrival's attributes its instance-layer row:
// _key and the asserted types join them, so the relation layer is
// rebuildable from the row alone.
func addRowColumns(a Arrival) model.Record {
	a.Attrs[model.KeyAttr] = model.String(a.Key)
	if len(a.Types) > 0 {
		tvals := make([]model.Value, len(a.Types))
		for i, t := range a.Types {
			tvals[i] = model.String(t)
		}
		a.Attrs[model.TypesAttr] = model.List(tvals...)
	}
	return a.Attrs
}

// Ingest runs the curation pass for one source delivery, a chunk of
// records at a time: each chunk's arrivals become their stored rows
// (addRowColumns, in the arrivals' own maps), land in the instance layer
// through one batch write, and are related (relateChunk); then the
// delivery's links and texts are integrated and the touched entities
// re-inferred. Every order-sensitive step — storage row IDs, graph
// insertion, incremental ER — runs in record order, so the state does not
// depend on the chunk size or the worker count (the differential tests pin
// this). tr, when non-nil, receives one span per
// stage: decode, batch install (with WAL fsync wait), relation/ER with
// its blocking and scoring busy time, integration, and inference.
func (p *Pipeline) Ingest(d Delivery, tr *obs.Trace) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.validate(d); err != nil {
		return err
	}
	// The root is the service layer's request span when this pass came
	// over the wire, or a fresh "ingest" root for embedded callers. All
	// span calls no-op when tr is nil.
	root := tr.Root("ingest")
	root.SetStr("source", d.Source)
	p.stats.Datasets++
	if err := p.recordIngestMeta(d.Source, d.Links, d.Texts); err != nil {
		return err
	}
	table, err := p.store.EnsureTable(d.Source)
	if err != nil {
		return err
	}
	walBefore := p.store.WALStats()
	entBefore, mergeBefore := p.stats.Entities, p.stats.Merges
	erBefore := p.resolver.Stats()
	var decodeDur, installDur, relateDur, blockBusy, scoreBusy time.Duration
	var touched []model.EntityID
	chunks := 0
	for chunk := range slices.Chunk(d.Entities, p.chunk) {
		chunks++
		start := time.Now()
		recs := make([]model.Record, len(chunk))
		for i, a := range chunk {
			recs[i] = addRowColumns(a)
		}
		decodeDur += time.Since(start)

		// Instance layer: one latch acquisition, one zone-map and index
		// maintenance pass, one multi-record log frame per chunk.
		start = time.Now()
		if _, err := table.InsertBatch(recs); err != nil {
			return err
		}
		p.stats.Records += len(recs)
		installDur += time.Since(start)

		start = time.Now()
		block, score, err := p.relateChunk(d.Source, chunk, &touched)
		if err != nil {
			return err
		}
		blockBusy += block
		scoreBusy += score
		relateDur += time.Since(start)
	}
	if tr != nil {
		walAfter := p.store.WALStats()
		dec := root.ChildDur("ingest.decode", decodeDur)
		dec.SetInt("records", int64(len(d.Entities)))
		dec.SetInt("chunks", int64(chunks))
		inst := root.ChildDur("ingest.install", installDur)
		inst.SetInt("rows", int64(len(d.Entities)))
		inst.SetInt("batches", int64(chunks))
		inst.SetInt("wal_frames", int64(walAfter.Frames-walBefore.Frames))
		inst.SetInt("wal_bytes", int64(walAfter.Bytes-walBefore.Bytes))
		inst.SetDur("wal_fsync_wait_us", walAfter.CommitWait-walBefore.CommitWait)
		rel := root.ChildDur("ingest.relate", relateDur)
		rel.SetInt("entities", int64(p.stats.Entities-entBefore))
		rel.SetInt("merges", int64(p.stats.Merges-mergeBefore))
		erAfter := p.resolver.Stats()
		blk := root.ChildDur("ingest.block", blockBusy)
		blk.SetInt("candidates", int64(erAfter.Candidates-erBefore.Candidates))
		blk.SetInt("ann_probes", int64(erAfter.ANNProbes-erBefore.ANNProbes))
		blk.SetInt("block_skips", int64(erAfter.BlockSkips-erBefore.BlockSkips))
		sc := root.ChildDur("ingest.score", scoreBusy)
		sc.SetInt("comparisons", int64(erAfter.Comparisons-erBefore.Comparisons))
		sc.SetInt("workers", int64(p.workers))
	}
	integ := root.Child("ingest.integrate")
	if err := p.integrate(d.Source, d.Links, d.Texts, &touched); err != nil {
		integ.End()
		return err
	}
	integ.SetInt("links_discovered", int64(p.stats.LinksDiscovered))
	integ.SetInt("links_pending", int64(p.stats.LinksPending))
	integ.End()

	// Semantic layer: incremental re-inference over touched entities; the
	// reasoner moves the optimizer's concept counts by what changed.
	infer := root.Child("ingest.infer")
	rs := p.reasoner.MaterializeEntities(touched)
	p.stats.InferredTypes = rs.InferredTypes
	p.stats.Witnesses = rs.Witnesses
	p.stats.Inconsistencies = rs.Inconsistencies
	infer.SetInt("inferred_types", int64(rs.InferredTypes))
	infer.SetInt("witnesses", int64(rs.Witnesses))
	infer.SetInt("inconsistencies", int64(rs.Inconsistencies))
	infer.End()
	return nil
}

// relateChunk is the relation stage of one chunk of one source's arrivals,
// for live ingest and RebuildFromStore alike. Each arrival's Attrs is its
// stored row: the graph entity and the store hold one map. Candidate
// generation and pair scoring (Prepare) only read the resolver's committed
// state, so they fan out across p.workers, the calling goroutine among
// them; graph insertion, union-find merge and attribute/ANN indexing then
// run strictly in record order (relatePrepared). Prepare never pairs two records of one source, so
// preparing a chunk against the state before it finds what a
// record-at-a-time pass would. It returns the chunk's blocking and scoring
// busy time.
func (p *Pipeline) relateChunk(source string, chunk []Arrival, touched *[]model.EntityID) (block, score time.Duration, err error) {
	preps := make([]*er.Prepared, len(chunk))
	var next atomic.Int64
	prepare := func() {
		for i := int(next.Add(1)) - 1; i < len(chunk); i = int(next.Add(1)) - 1 {
			preps[i] = p.resolver.Prepare(entity(source, chunk[i]))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(p.workers, len(chunk)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prepare()
		}()
	}
	prepare()
	wg.Wait()
	for i, a := range chunk {
		block += preps[i].BlockDur()
		score += preps[i].ScoreDur()
		if err := p.relatePrepared(source, a, preps[i], touched); err != nil {
			return block, score, err
		}
	}
	return block, score, nil
}

// entity is the graph entity an arrival delivers, before it has an ID,
// its attributes the arrival's stored row.
func entity(source string, a Arrival) *model.Entity {
	return &model.Entity{Key: a.Key, Source: source, Types: a.Types, Attrs: a.Attrs, Confidence: 1}
}

// relatePrepared is the order-sensitive half of the relation layer for
// one entity: graph insertion, attribute indexing, and the resolver's
// ordered commit. prep is the arrival's Prepare against the state before its
// chunk. Its normalized attribute texts are the ones the attribute index
// and the gazetteer keep. Its candidate set is valid only for a key new to
// the graph — a re-delivered key merges attributes into the existing
// entity, so the record is re-scored serially from the resolved entity,
// exactly as a serial pass would, and prep goes back unused.
func (p *Pipeline) relatePrepared(source string, a Arrival, prep *er.Prepared, touched *[]model.EntityID) error {
	_, existed := p.graph.FindByKey(source, a.Key)
	id := p.graph.AddEntity(entity(source, a))
	p.stats.Entities++
	*touched = append(*touched, id)
	p.indexNorms(id, a.Attrs, prep.Attrs())

	var matches []er.Match
	if existed {
		prep.Release()
		resolved, _ := p.graph.Entity(id)
		matches = p.resolver.Add(&model.Entity{ID: id, Key: a.Key, Source: source, Attrs: resolved.Attrs, Types: resolved.Types})
	} else {
		matches = p.resolver.Commit(prep, id)
	}
	for _, m := range matches {
		if err := p.graph.Merge(m.A, m.B); err != nil {
			return err
		}
		p.stats.Merges++
		*touched = append(*touched, m.A)
	}
	return nil
}

// integrate runs a delivery's link specs, text extraction, and the
// pending-link retry — the relation-layer tail after entities landed.
func (p *Pipeline) integrate(source string, links []datagen.LinkSpec, texts []string, touched *[]model.EntityID) error {
	// Intra-dataset entity edges.
	for _, l := range links {
		from, ok := p.graph.FindByKey(source, l.FromKey)
		if !ok {
			return fmt.Errorf("curate: link from unknown key %q in %s", l.FromKey, source)
		}
		conf := model.Fuzzy(l.Confidence)
		if conf == 0 {
			conf = 1
		}
		if l.ToKey != "" {
			to, ok := p.graph.FindByKey(source, l.ToKey)
			if !ok {
				return fmt.Errorf("curate: link to unknown key %q in %s", l.ToKey, source)
			}
			if err := p.graph.AddEdge(graph.Edge{From: from.ID, Predicate: l.Predicate, To: model.Ref(to.ID), Source: source, Confidence: conf}); err != nil {
				return err
			}
			p.stats.Edges++
			*touched = append(*touched, from.ID, to.ID)
			continue
		}
		// Literal edge: try link rules, else store the literal. Its
		// predicate's domain still types the subject, which may have
		// arrived in an earlier delivery.
		if p.applyRules(from.ID, source, l.Predicate, l.Literal, conf, touched) {
			continue
		}
		if err := p.graph.AddEdge(graph.Edge{From: from.ID, Predicate: l.Predicate, To: l.Literal, Source: source, Confidence: conf}); err != nil {
			return err
		}
		p.stats.LiteralEdges++
		*touched = append(*touched, from.ID)
	}

	// Unstructured text → extractions → edges.
	for _, text := range texts {
		for _, ex := range extract.ExtractRelations(text, p.gaz, p.patterns) {
			subj := p.lookupValue(ex.Subject.Canonical)
			obj := p.lookupValue(ex.Object.Canonical)
			if subj == model.NoEntity || obj == model.NoEntity || subj == obj {
				continue
			}
			if err := p.graph.AddEdge(graph.Edge{From: subj, Predicate: ex.Predicate, To: model.Ref(obj), Source: source + ":text", Confidence: model.Fuzzy(ex.Confidence)}); err != nil {
				return err
			}
			p.stats.Extractions++
			*touched = append(*touched, subj, obj)
		}
	}

	// Continuous integration: links that failed earlier may resolve now.
	p.retryPending(touched)
	return nil
}

// applyRules attempts to resolve a literal reference through the link
// rules; unresolved matches are parked for retry.
func (p *Pipeline) applyRules(from model.EntityID, source, predicate string, literal model.Value, conf model.Fuzzy, touched *[]model.EntityID) bool {
	for _, rule := range p.rules {
		if rule.Predicate != predicate {
			continue
		}
		val := er.Normalize(literal.Text())
		if target := p.findTarget(rule, val); target != model.NoEntity {
			if err := p.graph.AddEdge(graph.Edge{From: from, Predicate: rule.EdgePredicate, To: model.Ref(target), Source: source, Confidence: conf}); err == nil {
				p.stats.Edges++
				p.stats.LinksDiscovered++
				*touched = append(*touched, from, target)
			}
			return true
		}
		p.pending = append(p.pending, pendingLink{from: from, rule: rule, val: val, conf: conf})
		p.stats.LinksPending++
		return true
	}
	return false
}

// retryPending re-attempts parked literal references (new arrivals may
// have supplied the target).
func (p *Pipeline) retryPending(touched *[]model.EntityID) {
	var still []pendingLink
	for _, pl := range p.pending {
		if target := p.findTarget(pl.rule, pl.val); target != model.NoEntity {
			if err := p.graph.AddEdge(graph.Edge{From: pl.from, Predicate: pl.rule.EdgePredicate, To: model.Ref(target), Source: "discovered", Confidence: pl.conf}); err == nil {
				p.stats.Edges++
				p.stats.LinksDiscovered++
				*touched = append(*touched, p.graph.Resolve(pl.from), target)
			}
			continue
		}
		still = append(still, pl)
	}
	p.pending = still
	p.stats.LinksPending = len(still)
}

// findTarget resolves a normalized literal to an entity via the attribute
// index, honoring the rule's type filter. Ambiguity (multiple distinct
// canonical entities) resolves to the first by ID for determinism.
func (p *Pipeline) findTarget(rule LinkRule, val string) model.EntityID {
	best := model.NoEntity
	for _, id := range p.attrIndex[val] {
		id = p.graph.Resolve(id)
		e, ok := p.graph.Entity(id)
		if !ok {
			continue
		}
		if rule.TargetType != "" && !p.reasoner.HasType(id, rule.TargetType) && !e.HasType(rule.TargetType) {
			continue
		}
		if best == model.NoEntity || id < best {
			best = id
		}
	}
	return best
}

// lookupValue grounds an extracted mention to an entity.
func (p *Pipeline) lookupValue(text string) model.EntityID {
	ids := p.attrIndex[er.Normalize(text)]
	if len(ids) == 0 {
		return model.NoEntity
	}
	best := p.graph.Resolve(ids[0])
	for _, id := range ids[1:] {
		if r := p.graph.Resolve(id); r < best {
			best = r
		}
	}
	return best
}

// indexNorms adds the entity's string attribute values to the lookup index
// and the gazetteer, each under the normal form the resolver made of it
// (norms, sorted by name: er.Prepared.Attrs), so a value is normalized once
// and all three hold one string. The gazetteer concept comes from the graph
// entity (a re-delivered key may have merged into richer types).
func (p *Pipeline) indexNorms(id model.EntityID, attrs model.Record, norms er.Attrs) {
	e, ok := p.graph.Entity(id)
	if !ok {
		return
	}
	concept := ""
	if len(e.Types) > 0 {
		concept = e.Types[0]
	}
	for _, at := range norms {
		raw, ok := attrs[at.Name].AsString()
		if !ok {
			continue // the text of a number or a time is not looked up
		}
		p.attrIndex[at.Text] = append(p.attrIndex[at.Text], id)
		p.gaz.Add(at.Text, raw, concept)
	}
}
