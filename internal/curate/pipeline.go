package curate

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scdb/internal/catalog"
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
// catalog, graph, ontology, reasoner — each carry their own, so queries
// keep reading them while a pass runs.
//
// Lock order: pipeline.mu is never acquired while holding the engine's
// db.mu — core takes them in pipeline-then-db order only.
type Pipeline struct {
	store    *storage.Store
	cat      *catalog.Catalog
	graph    *graph.Graph
	onto     *ontology.Ontology
	reasoner *reason.Reasoner
	resolver *er.Resolver
	gaz      *extract.Gazetteer
	patterns []extract.Pattern
	rules    []LinkRule

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
	Catalog   *catalog.Catalog
	Graph     *graph.Graph
	Ontology  *ontology.Ontology
	Reasoner  *reason.Reasoner
	LinkRules []LinkRule
	Patterns  []extract.Pattern
	// ERConfig tunes incremental entity resolution.
	ERConfig er.Config
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
	return &Pipeline{
		store:       cfg.Store,
		cat:         cfg.Catalog,
		graph:       cfg.Graph,
		onto:        cfg.Ontology,
		reasoner:    r,
		resolver:    er.NewResolver(cfg.ERConfig),
		gaz:         extract.NewGazetteer(),
		patterns:    cfg.Patterns,
		rules:       cfg.LinkRules,
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

// DefaultIngestBatch is the records-per-batch granule when IngestOptions
// leaves BatchSize zero — matching the storage scan morsel size.
const DefaultIngestBatch = 1024

// IngestOptions tunes the batched ingest path.
type IngestOptions struct {
	// BatchSize is records per storage write batch (<=0 = DefaultIngestBatch;
	// 1 degrades to the per-record write path, the serial baseline).
	BatchSize int
	// Parallelism sizes the decode worker pool (<=0 = one per CPU; 1
	// decodes inline). Final state is identical for every setting.
	Parallelism int
	// Trace, when non-nil, receives per-stage spans for this pass:
	// decode fan-out busy time, batch install (with WAL fsync wait),
	// relation/ER, integration, and incremental inference.
	Trace *obs.Trace
}

// IngestDataset runs the full curation pass for one source delivery with
// default batching.
func (p *Pipeline) IngestDataset(ds datagen.Dataset) error {
	return p.IngestDatasetOpts(ds, IngestOptions{})
}

// buildInstanceRecord turns a spec into the instance-layer row (attributes
// plus _key and asserted types, so the relation layer is rebuildable).
func buildInstanceRecord(spec datagen.EntitySpec) model.Record {
	rec := spec.Attrs.Clone()
	rec["_key"] = model.String(spec.Key)
	if len(spec.Types) > 0 {
		tvals := make([]model.Value, len(spec.Types))
		for i, t := range spec.Types {
			tvals[i] = model.String(t)
		}
		rec[typesAttr] = model.List(tvals...)
	}
	return rec
}

// decodeChunk builds the instance-layer rows of one chunk of entity specs.
func decodeChunk(chunk []datagen.EntitySpec) []model.Record {
	recs := make([]model.Record, len(chunk))
	for i, spec := range chunk {
		recs[i] = buildInstanceRecord(spec)
	}
	return recs
}

// IngestDatasetOpts runs the staged curation pass: decode fans out on a
// worker pool and streams batches to the serialized install/relate stages,
// so batch k+1 decodes while batch k installs. The final state is
// byte-identical to a serial per-record pass (the differential tests pin
// this), because every order-sensitive step — storage row IDs, catalog
// observation, graph insertion, incremental ER — runs in record order.
func (p *Pipeline) IngestDatasetOpts(ds datagen.Dataset, opt IngestOptions) error {
	batchSize := opt.BatchSize
	if batchSize <= 0 {
		batchSize = DefaultIngestBatch
	}
	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Tracing: the root is the service layer's request span when this pass
	// came over the wire, or a fresh "ingest" root for embedded callers.
	// All span calls no-op when opt.Trace is nil; decodeBusy sums worker
	// busy time across the pool so the decode stage reports CPU cost, not
	// wall clock.
	tr := opt.Trace
	root := tr.Root("ingest")
	root.SetStr("source", ds.Source)
	var decodeBusy atomic.Int64

	// Stage 1 — decode. Chunks hand out in index order; ready[ci] closes
	// when chunk ci is decoded.
	var chunks [][]datagen.EntitySpec
	for lo := 0; lo < len(ds.Entities); lo += batchSize {
		hi := min(lo+batchSize, len(ds.Entities))
		chunks = append(chunks, ds.Entities[lo:hi])
	}
	decoded := make([][]model.Record, len(chunks))
	var ready []chan struct{}
	if workers > 1 && len(chunks) > 1 {
		ready = make([]chan struct{}, len(chunks))
		for i := range ready {
			ready[i] = make(chan struct{})
		}
		jobs := make(chan int)
		for w := 0; w < workers; w++ {
			go func() {
				for ci := range jobs {
					start := time.Now()
					decoded[ci] = decodeChunk(chunks[ci])
					decodeBusy.Add(int64(time.Since(start)))
					close(ready[ci])
				}
			}()
		}
		go func() {
			for ci := range chunks {
				jobs <- ci
			}
			close(jobs)
		}()
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Datasets++
	if p.cat != nil {
		if err := p.cat.RegisterSource(catalog.SourceInfo{Name: ds.Source, Kind: "dataset"}); err != nil {
			return err
		}
	}
	if err := p.recordIngestMeta(ds, batchSize); err != nil {
		return err
	}
	table, err := p.store.EnsureTable(ds.Source)
	if err != nil {
		return err
	}
	walBefore := p.store.WALStats()
	entBefore, mergeBefore := p.stats.Entities, p.stats.Merges
	erBefore := p.resolver.Stats()
	var installDur, relateDur, blockBusy, scoreBusy time.Duration
	var touched []model.EntityID
	for ci := range chunks {
		if ready != nil {
			<-ready[ci]
		} else {
			start := time.Now()
			decoded[ci] = decodeChunk(chunks[ci])
			decodeBusy.Add(int64(time.Since(start)))
		}
		recs := decoded[ci]

		// Stage 2 — instance layer: one latch acquisition, one zone-map and
		// index maintenance pass, one multi-record log frame per batch.
		start := time.Now()
		if batchSize == 1 {
			if _, err := table.Insert(recs[0]); err != nil {
				return err
			}
		} else if _, err := table.InsertBatch(recs); err != nil {
			return err
		}
		p.stats.Records += len(recs)
		if p.cat != nil {
			for _, rec := range recs {
				p.cat.Observe(ds.Source, rec)
			}
		}
		installDur += time.Since(start)

		// Stage 3 — relation layer. Candidate generation and pair scoring
		// are pure reads over the resolver's committed state, so they fan
		// out across the worker pool; graph insertion, union-find merge,
		// and attribute/ANN indexing then replay strictly in record order
		// (the same ordered-commit shape as the decode stage), keeping the
		// final state byte-identical to a serial pass.
		start = time.Now()
		preps := p.prepareChunk(ds.Source, chunks[ci], workers)
		for _, prep := range preps {
			blockBusy += prep.BlockDur()
			scoreBusy += prep.ScoreDur()
		}
		for i, spec := range chunks[ci] {
			if err := p.relatePrepared(ds.Source, spec, preps[i], &touched); err != nil {
				return err
			}
		}
		relateDur += time.Since(start)
	}
	if tr != nil {
		walAfter := p.store.WALStats()
		dec := root.ChildDur("ingest.decode", time.Duration(decodeBusy.Load()))
		dec.SetInt("records", int64(len(ds.Entities)))
		dec.SetInt("chunks", int64(len(chunks)))
		dec.SetInt("workers", int64(workers))
		inst := root.ChildDur("ingest.install", installDur)
		inst.SetInt("rows", int64(len(ds.Entities)))
		inst.SetInt("batches", int64(len(chunks)))
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
		sc.SetInt("workers", int64(workers))
	}
	integ := root.Child("ingest.integrate")
	if err := p.integrate(ds, &touched); err != nil {
		integ.End()
		return err
	}
	integ.SetInt("links_discovered", int64(p.stats.LinksDiscovered))
	integ.SetInt("links_pending", int64(p.stats.LinksPending))
	integ.End()

	// Semantic layer: incremental re-inference over touched entities.
	infer := root.Child("ingest.infer")
	rs := p.reasoner.MaterializeEntities(touched)
	p.stats.InferredTypes = rs.InferredTypes
	p.stats.Witnesses = rs.Witnesses
	p.stats.Inconsistencies = rs.Inconsistencies
	p.refreshConceptStats()
	infer.SetInt("inferred_types", int64(rs.InferredTypes))
	infer.SetInt("witnesses", int64(rs.Witnesses))
	infer.SetInt("inconsistencies", int64(rs.Inconsistencies))
	infer.End()
	return nil
}

// prepareChunk runs the resolver's pure half — candidate generation and
// pair scoring — for every spec of the chunk, fanned out across the
// worker pool when it is sized for it. Workers only read the resolver's
// committed state (the chunk commits after this barrier), so the results
// are independent of the worker count.
func (p *Pipeline) prepareChunk(source string, chunk []datagen.EntitySpec, workers int) []*er.Prepared {
	preps := make([]*er.Prepared, len(chunk))
	prep := func(i int) {
		preps[i] = p.resolver.Prepare(arrival(source, chunk[i]))
	}
	if workers <= 1 || len(chunk) < 2 {
		for i := range chunk {
			prep(i)
		}
		return preps
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	n := min(workers, len(chunk))
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(chunk) {
					return
				}
				prep(i)
			}
		}()
	}
	wg.Wait()
	return preps
}

// relateSpec runs the relation layer for one entity: graph insertion,
// attribute indexing, and incremental ER against everything already
// curated. The serial entry point (replay/rebuild); live ingest prepares a
// chunk at a time (prepareChunk) and then relates each spec in order.
func (p *Pipeline) relateSpec(source string, spec datagen.EntitySpec, touched *[]model.EntityID) error {
	return p.relatePrepared(source, spec, p.resolver.Prepare(arrival(source, spec)), touched)
}

// arrival is the entity a spec delivers, before it has an ID.
func arrival(source string, spec datagen.EntitySpec) *model.Entity {
	return &model.Entity{Key: spec.Key, Source: source, Types: spec.Types, Attrs: spec.Attrs, Confidence: 1}
}

// relatePrepared is the order-sensitive half of the relation layer for
// one entity: graph insertion, attribute indexing, and the resolver's
// ordered commit. prep is the spec's Prepare against the state before its
// chunk. Its normalized attribute texts are the ones the attribute index
// and the gazetteer keep. Its candidate set is valid only for a key new to
// the graph — a re-delivered key merges attributes into the existing
// entity, so the record is re-scored serially from the resolved entity,
// exactly as a serial pass would.
func (p *Pipeline) relatePrepared(source string, spec datagen.EntitySpec, prep *er.Prepared, touched *[]model.EntityID) error {
	_, existed := p.graph.FindByKey(source, spec.Key)
	id := p.graph.AddEntity(arrival(source, spec))
	p.stats.Entities++
	*touched = append(*touched, id)
	p.indexNorms(id, spec.Attrs, prep.Attrs())

	var matches []er.Match
	if existed {
		resolved, _ := p.graph.Entity(id)
		matches = p.resolver.Add(&model.Entity{ID: id, Key: spec.Key, Source: source, Attrs: resolved.Attrs, Types: resolved.Types})
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

// replayDataset runs the relation-layer half of curation: entities into
// the graph, incremental ER, link discovery, and extraction. It is shared
// by live ingestion and RebuildFromStore (which replays stored inputs
// without touching the instance layer again). Caller holds p.mu.
func (p *Pipeline) replayDataset(ds datagen.Dataset, touched *[]model.EntityID) error {
	for _, spec := range ds.Entities {
		if err := p.relateSpec(ds.Source, spec, touched); err != nil {
			return err
		}
	}
	return p.integrate(ds, touched)
}

// integrate runs the dataset's link specs, text extraction, and the
// pending-link retry — the relation-layer tail after entities landed.
func (p *Pipeline) integrate(ds datagen.Dataset, touched *[]model.EntityID) error {
	// Intra-dataset entity edges.
	for _, l := range ds.Links {
		from, ok := p.graph.FindByKey(ds.Source, l.FromKey)
		if !ok {
			return fmt.Errorf("curate: link from unknown key %q in %s", l.FromKey, ds.Source)
		}
		conf := model.Fuzzy(l.Confidence)
		if conf == 0 {
			conf = 1
		}
		if l.ToKey != "" {
			to, ok := p.graph.FindByKey(ds.Source, l.ToKey)
			if !ok {
				return fmt.Errorf("curate: link to unknown key %q in %s", l.ToKey, ds.Source)
			}
			if err := p.graph.AddEdge(graph.Edge{From: from.ID, Predicate: l.Predicate, To: model.Ref(to.ID), Source: ds.Source, Confidence: conf}); err != nil {
				return err
			}
			p.stats.Edges++
			*touched = append(*touched, from.ID, to.ID)
			continue
		}
		// Literal edge: try link rules, else store the literal.
		if p.applyRules(from.ID, ds.Source, l.Predicate, l.Literal, conf, touched) {
			continue
		}
		if err := p.graph.AddEdge(graph.Edge{From: from.ID, Predicate: l.Predicate, To: l.Literal, Source: ds.Source, Confidence: conf}); err != nil {
			return err
		}
		p.stats.LiteralEdges++
	}

	// Unstructured text → extractions → edges.
	for _, text := range ds.Texts {
		for _, ex := range extract.ExtractRelations(text, p.gaz, p.patterns) {
			subj := p.lookupValue(ex.Subject.Canonical)
			obj := p.lookupValue(ex.Object.Canonical)
			if subj == model.NoEntity || obj == model.NoEntity || subj == obj {
				continue
			}
			if err := p.graph.AddEdge(graph.Edge{From: subj, Predicate: ex.Predicate, To: model.Ref(obj), Source: ds.Source + ":text", Confidence: model.Fuzzy(ex.Confidence)}); err != nil {
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

// refreshConceptStats pushes instance counts into the ontology for the
// optimizer's semantic selectivity (OS.3).
func (p *Pipeline) refreshConceptStats() {
	counts := map[string]int{}
	p.graph.ForEachEntity(func(e *model.Entity) bool {
		for _, t := range p.reasoner.EntityTypes(e.ID) {
			counts[t]++
		}
		return true
	})
	for c, n := range counts {
		p.onto.SetInstanceCount(c, n)
	}
}

// EnrichmentVersion combines the graph and ontology versions — the
// enrichment clock FS.11's transaction validation watches.
func (p *Pipeline) EnrichmentVersion() uint64 {
	return p.graph.Version() + p.onto.Version()
}
