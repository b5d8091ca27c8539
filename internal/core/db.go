// Package core assembles the self-curating database: the storage engine
// (instance layer), entity graph (relation layer), ontology and reasoner
// (semantic layer), the curation pipeline that keeps them enriched, the
// SCQL query engine with semantic optimization, parallel-world claim
// fusion, context-aware refinement, transactions, and the materialization
// cache. This is the system Figure 1 of the paper sketches, as one engine.
package core

import (
	"context"
	"strings"
	"sync"

	"scdb/internal/catalog"
	"scdb/internal/curate"
	"scdb/internal/datagen"
	"scdb/internal/er"
	"scdb/internal/extract"
	"scdb/internal/fusion"
	"scdb/internal/graph"
	"scdb/internal/model"
	"scdb/internal/obs"
	"scdb/internal/ontology"
	"scdb/internal/query"
	"scdb/internal/reason"
	"scdb/internal/refine"
	"scdb/internal/semantic"
	"scdb/internal/storage"
	"scdb/internal/txn"
)

// Options configures Open.
type Options struct {
	// Dir is the storage directory; empty means in-memory.
	Dir string
	// Storage configures the store opened at Dir.
	Storage storage.Options
	// Axioms seeds the ontology, one axiom a line (ontology.Parse's
	// format). A writable open stores the lines the ontology table lacks;
	// the ontology is the stored axioms and these. ADD AXIOMS adds more.
	Axioms string
	// LinkRules drive online literal-to-entity link discovery.
	LinkRules []curate.LinkRule
	// Patterns drive information extraction over unstructured text.
	Patterns []extract.Pattern
	// ERBlocking selects entity resolution's candidate generation.
	ERBlocking er.BlockingMode
	// DisableSemanticOpt turns the OS.3 rewrites off (ablation).
	DisableSemanticOpt bool
	// DisableMatCache turns materialization off (ablation).
	DisableMatCache bool
	// Parallelism sizes the morsel-driven executor's worker pool and the
	// ingest relate stage's scoring fan-out. <=0 means one worker per CPU;
	// 1 executes every operator inline and scores on the ingesting
	// goroutine. Results and curation state are identical for every
	// setting.
	Parallelism int
	// MorselSize overrides the executor's rows-per-morsel granule (<=0 =
	// the query package default of 1024). Mostly a testing knob.
	MorselSize int
	// DisableAccessPaths keeps the planner from fusing Filter-over-Scan
	// into IndexScan (no index use, no zone pruning — ablation baseline).
	DisableAccessPaths bool
	// DisableZonePruning executes IndexScans without skipping refuted zone
	// segments (differential baseline; plans are unchanged).
	DisableZonePruning bool
	// DisableIndexScan executes IndexScans as plain zone scans and stops
	// index self-creation (differential baseline; plans are unchanged).
	DisableIndexScan bool
	// ReadOnly opens the engine as a read replica: ingest and the
	// curation statements return ErrReadOnly, and Open stores no seed
	// axioms — the store's content (and its commit clock) belong to the
	// primary and arrive only through replication apply.
	ReadOnly bool
}

// DB is the self-curating database engine.
//
// Lock order: ingestMu → pipeline.mu → db.mu. Nothing acquires pipeline.mu
// while holding db.mu (Stats reads the pipeline counters after releasing
// db.mu), so curation can run outside the engine lock without deadlocking
// against readers.
type DB struct {
	mu sync.RWMutex

	// ingestMu serializes Ingest against itself and Close, without
	// blocking queries: the curation pipeline's heavy phases run under it
	// (and the pipeline's own mutex), not under db.mu.
	ingestMu sync.Mutex
	closed   bool // under ingestMu+mu; Close is idempotent

	store *storage.Store
	derived
	txns     *txn.Manager
	matCache *curate.MatCache
	plans    *query.ShapeCache[*planEntry]
	opts     Options
	// reg is the node's self-description (system.go).
	reg *obs.Registry
}

// derived is what an engine derives from its store: the ontology, the
// relation and semantic layers, the curation pipeline that keeps them, the
// claim worlds with their refiner, and the memos read from its graph.
// RefreshDerived swaps the whole set.
type derived struct {
	// base is what the set's clocks count on from: 0 at Open and, at
	// RefreshDerived, the retiring set's clock + 1, so no clock over the
	// derived layers (clock, enrichmentVersion, the plan key) goes back.
	base     uint64
	onto     *ontology.Ontology
	graph    *graph.Graph
	reasoner *reason.Reasoner
	pipeline *curate.Pipeline
	worlds   *fusion.Worlds
	refiner  *refine.Refiner
	// refresh numbers the newest richness refresh the worlds weigh by (0:
	// none, fusion unweighted).
	refresh int64
	*memos
}

// memos are what reads compute from their set's graph and reuse while its
// version stands; they go with the set.
type memos struct {
	// csrMu guards the traversal snapshot (OS.2).
	csrMu sync.Mutex
	csr   *graph.CSR
	// tpMu guards the type-prediction model (FS.4/FS.5's PREDICT
	// function).
	tpMu  sync.Mutex
	tp    *semantic.TypePredictor
	tpVer uint64
}

// clock is the set's full clock: its base plus the graph's, ontology's and
// reasoner's counters, each of which moves after the change it counts is
// visible and only grows.
func (d *derived) clock() uint64 {
	return d.base + d.graph.Version() + d.onto.Version() + d.reasoner.Version()
}

// buildDerived is the one assembly of the derived layers, for Open and
// RefreshDerived: it stores the seed axioms the store lacks (writable
// only), re-curates the stored inputs into a fresh graph and reasoner
// (RebuildFromStore, a no-op on a fresh store), and loads the claim base
// with its richness weights. The ontology is the stored axioms and the
// seed, so a follower's refresh picks up what its primary was told.
func buildDerived(store *storage.Store, opts Options) (derived, error) {
	d := derived{memos: new(memos)}
	seed, err := ontology.Lines(opts.Axioms)
	if err != nil {
		return d, err
	}
	if !opts.ReadOnly {
		if _, err := catalog.AppendAxioms(store, seed); err != nil {
			return d, err
		}
	}
	onto, err := catalog.LoadOntology(store)
	if err != nil {
		return d, err
	}
	if err := onto.Parse(strings.NewReader(opts.Axioms)); err != nil {
		return d, err
	}
	d.onto = onto
	d.graph = graph.New()
	d.reasoner = reason.New(d.graph, onto)
	d.pipeline, err = curate.NewPipeline(curate.Config{
		Store:       store,
		Graph:       d.graph,
		Ontology:    onto,
		Reasoner:    d.reasoner,
		LinkRules:   opts.LinkRules,
		Patterns:    opts.Patterns,
		Blocking:    opts.ERBlocking,
		Parallelism: opts.Parallelism,
	})
	if err != nil {
		return d, err
	}
	if err := d.pipeline.RebuildFromStore(); err != nil {
		return d, err
	}
	d.worlds = fusion.New(onto)
	d.refiner = refine.New(onto, d.graph, d.worlds)
	loadClaims(store, d.graph, d.worlds)
	d.refresh = loadRichness(store, d.worlds)
	return d, nil
}

// Open assembles the engine.
func Open(opts Options) (*DB, error) {
	store, err := storage.OpenOptions(opts.Dir, opts.Storage)
	if err != nil {
		return nil, err
	}
	d, err := buildDerived(store, opts)
	if err != nil {
		store.Close()
		return nil, err
	}
	db := &DB{
		store:    store,
		derived:  d,
		matCache: curate.NewMatCache(0, curate.PolicyRanked), // curate's default capacity
		plans:    query.NewShapeCache[*planEntry](query.ShapeCacheSize),
		opts:     opts,
		reg:      obs.NewRegistry(),
	}
	db.txns = txn.NewManager(store, db.enrichmentVersion)
	db.register()
	return db, nil
}

// claimsTable persists the parallel-world claim base. Entities are
// referenced by (source, key), which survives merges.
const claimsTable = "_claims"

// loadClaims restores the persisted claim base into a claim store,
// resolving entity references against the given graph.
func loadClaims(store *storage.Store, g *graph.Graph, worlds *fusion.Worlds) {
	tb, ok := store.Table(claimsTable)
	if !ok {
		return
	}
	tb.Scan(func(_ storage.RowID, rec model.Record) bool {
		src, _ := rec.Get("claim_source").AsString()
		eSrc, _ := rec.Get("entity_source").AsString()
		eKey, _ := rec.Get("entity_key").AsString()
		attr, _ := rec.Get("attr").AsString()
		conf, _ := rec.Get("conf").AsFloat()
		var ctx []string
		if l, ok := rec.Get("context").AsList(); ok {
			for _, v := range l {
				if s, ok := v.AsString(); ok {
					ctx = append(ctx, s)
				}
			}
		}
		e, ok := g.FindByKey(eSrc, eKey)
		if !ok {
			return true // entity gone; drop the claim
		}
		worlds.AddClaim(fusion.Claim{
			Source: src, Entity: e.ID, Attr: attr,
			Value: rec.Get("value"), Context: ctx, Confidence: model.Fuzzy(conf),
		})
		return true
	})
}

// loadRichness weights the claim base by the newest richness refresh's
// scores and returns its number (0: the store was never refreshed).
func loadRichness(store *storage.Store, worlds *fusion.Worlds) int64 {
	tb, ok := store.Table(catalog.RichnessTable)
	if !ok {
		return 0
	}
	var newest int64
	scores := map[string]float64{}
	tb.Scan(func(_ storage.RowID, rec model.Record) bool {
		n, _ := rec.Get("refresh").AsInt()
		if n > newest {
			newest = n
			clear(scores)
		}
		if n == newest {
			src, _ := rec.Get("source").AsString()
			scores[src], _ = rec.Get("score").AsFloat()
		}
		return true
	})
	for src, score := range scores {
		worlds.SetRichness(src, score)
	}
	return newest
}

// Close closes the store, whose last flush fsyncs the log; it writes
// nothing of its own. It waits out an in-flight Ingest (ingestMu) so
// curation never writes to a closed log. Axioms, claims and richness
// weights were written when they were told.
func (db *DB) Close() error {
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	return db.store.Close()
}

// csrSnapshot returns a CSR snapshot of the current graph, rebuilding it
// in BFS order when the graph changed since the last build. It is what
// REACHES and LINKED walk, at every graph size.
func (db *DB) csrSnapshot() *graph.CSR {
	ver := db.graph.Version()
	db.csrMu.Lock()
	defer db.csrMu.Unlock()
	if db.csr == nil || db.csr.Version() != ver {
		db.csr = db.graph.BuildCSR(graph.OrderBFS)
	}
	return db.csr
}

// typePredictor returns the cached naive-Bayes type model, retraining it
// from the typed entities when the graph changed. Returns nil when the
// graph holds no typed entities to learn from.
func (db *DB) typePredictor() *semantic.TypePredictor {
	ver := db.graph.Version()
	db.tpMu.Lock()
	defer db.tpMu.Unlock()
	if db.tp == nil || db.tpVer != ver {
		tp := semantic.NewTypePredictor()
		trained := tp.TrainGraph(db.graph, func(id model.EntityID) []string {
			e, ok := db.graph.Entity(id)
			if !ok || len(e.Types) == 0 {
				return nil
			}
			return e.Types[:1]
		})
		if trained == 0 {
			db.tp = nil
		} else {
			db.tp = tp
		}
		db.tpVer = ver
	}
	return db.tp
}

// enrichmentVersion is the combined clock of the relation and semantic
// layers, watched by transaction validation (FS.11): the set's base plus
// the graph's and ontology's counters. The set is read under db.mu because
// RefreshDerived swaps it wholesale; the transaction manager calls this
// outside any engine lock.
func (db *DB) enrichmentVersion() uint64 {
	db.mu.RLock()
	base, g, o := db.base, db.graph, db.onto
	db.mu.RUnlock()
	return base + g.Version() + o.Version()
}

// answerVersion is the version a cached answer is valid at, read under
// db.mu: the store's installs and the derived set's clock, which only
// grow, so equal sums mean nothing a statement reads moved.
func (db *DB) answerVersion() uint64 {
	return db.store.Installs() + db.clock()
}

// Ingest runs a source delivery through the curation pipeline. The heavy
// phases — decode, batched instance writes, ER, link discovery,
// extraction, re-inference — run OUTSIDE db.mu: the pipeline serializes
// itself, and every structure it feeds (store, graph, ontology, reasoner)
// carries its own latch, so queries keep executing against consistent,
// progressively enriched state while a delivery lands (FS.11's continuous
// curation). A cached answer is valid at its version (answerVersion), which
// every change a delivery makes moves once it is visible.
//
// Ingest borrows ds: each entity's attributes are copied into a row of
// the engine's own (curate.NewDelivery), so the dataset is never written.
func (db *DB) Ingest(ds datagen.Dataset) error {
	return db.IngestCtx(context.Background(), curate.NewDelivery(ds))
}

// IngestCtx is Ingest of a delivery whose attribute maps the engine owns
// from here on: each becomes its entity's stored row (curate.Arrival).
// When ctx carries an obs trace (a TRACE-style ingest request, or the
// debug tooling), the curation pipeline attaches per-stage spans —
// decode, batch install with WAL fsync wait, relation/ER, integration,
// inference — to it. Cancellation is not yet observed mid-pass; a delivery
// is atomic with respect to the curation state.
func (db *DB) IngestCtx(ctx context.Context, d curate.Delivery) error {
	if db.opts.ReadOnly {
		return ErrReadOnly
	}
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	return db.pipeline.Ingest(d, obs.FromContext(ctx))
}

// Graph exposes the relation layer (read-mostly analytical use).
func (db *DB) Graph() *graph.Graph { return db.graph }

// Reasoner exposes the ABox reasoner.
func (db *DB) Reasoner() *reason.Reasoner { return db.reasoner }

// Store exposes the instance layer.
func (db *DB) Store() *storage.Store { return db.store }

// Pipeline exposes curation statistics.
func (db *DB) Pipeline() *curate.Pipeline { return db.pipeline }

// ERDigests exports the resolver's cross-shard ER evidence past the given
// watermarks — the shard-side half of the router's digest exchange.
func (db *DB) ERDigests(entsSince, matchesSince int) er.DigestBatch {
	return db.pipeline.ERDigests(entsSince, matchesSince)
}

// Begin starts a transaction (FS.11).
func (db *DB) Begin(level txn.Level) *txn.Txn { return db.txns.Begin(level) }

// Vacuum reclaims record versions below the oldest live transaction's
// snapshot and returns how many were removed.
//
// Vacuum deliberately takes no db.mu. It is safe without it: the horizon
// is the oldest snapshot any live transaction can read at, so every
// version Table.Vacuum drops is invisible to all current and future
// readers by CSN arithmetic, and the per-table latch covers the chain
// compaction plus the zone-map/index rebuild against concurrent scans and
// writes. Holding db.mu here would stall queries and ingest for the whole
// sweep; instead vacuum interleaves with both (pinned by
// TestConcurrentIngestQueryVacuum under -race).
func (db *DB) Vacuum() int {
	horizon := db.txns.OldestSnapshot()
	removed := 0
	for _, name := range db.store.Tables() {
		if t, ok := db.store.Table(name); ok {
			removed += t.Vacuum(horizon)
		}
	}
	return removed
}

// IndexStats lists the self-curated (and pinned) secondary indexes across
// every table, sorted by (table, attribute).
func (db *DB) IndexStats() []storage.IndexStat {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store.IndexStats()
}

// PlanCacheStats reports plan-cache hits, misses, and resident entries.
func (db *DB) PlanCacheStats() PlanCacheStats { return db.plans.Stats() }

// WALStats reports the durable store's write-ahead-log counters (zero for
// in-memory databases).
func (db *DB) WALStats() storage.WALStats { return db.store.WALStats() }

// TableRecords materializes every live record of a table (for QBE and
// export paths; queries should use SCQL).
func (db *DB) TableRecords(name string) ([]model.Record, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.store.Table(name)
	if !ok {
		return nil, false
	}
	var recs []model.Record
	t.Scan(func(_ storage.RowID, rec model.Record) bool {
		recs = append(recs, rec)
		return true
	})
	return recs, true
}

// lookupByText grounds a name to an entity via the graph (linear scan over
// string attributes, a stored row's own columns left out; the pipeline's
// index is not exposed, and lookups by name are interactive-path only).
func (db *DB) lookupByText(text string) model.EntityID {
	norm := er.Normalize(text)
	best := model.NoEntity
	db.graph.ForEachEntity(func(e *model.Entity) bool {
		for _, k := range e.Attrs.Keys() {
			if model.IsRowColumn(k) {
				continue
			}
			if s, ok := e.Attrs[k].AsString(); ok && er.Normalize(s) == norm {
				if best == model.NoEntity || e.ID < best {
					best = e.ID
				}
			}
		}
		return true
	})
	return best
}

// Stats summarizes the engine.
type Stats struct {
	Tables          int
	Entities        int
	Edges           int
	Concepts        int
	InferredTypes   int
	Witnesses       int
	Inconsistencies int
	Merges          int
	Claims          int
	CacheHitRate    float64
	// ER reports the resolver's work counters (curation cost visibility).
	ER er.Stats
}

// Stats returns a snapshot of one derived set, copied under db.mu because
// RefreshDerived swaps it. Its pipeline counters are read after db.mu is
// released (never under it — see the lock order on DB).
func (db *DB) Stats() Stats {
	db.mu.RLock()
	d := db.derived
	rs := d.reasoner.Stats()
	claims := 0
	for _, c := range d.worlds.Conflicts() {
		claims += len(c.Claims)
	}
	st := Stats{
		Tables:          len(db.store.Tables()),
		Entities:        d.graph.NumEntities(),
		Edges:           d.graph.NumEdges(),
		Concepts:        len(d.onto.Concepts()),
		InferredTypes:   rs.InferredTypes,
		Witnesses:       rs.Witnesses,
		Inconsistencies: rs.Inconsistencies,
		Claims:          claims,
		CacheHitRate:    db.matCache.Stats().HitRate(),
	}
	db.mu.RUnlock()
	ps := d.pipeline.Stats()
	st.Merges, st.ER = ps.Merges, ps.ER
	return st
}
