package scdb

import (
	"context"
	"fmt"

	"scdb/internal/core"
	"scdb/internal/curate"
	"scdb/internal/datagen"
	"scdb/internal/er"
	"scdb/internal/model"
	"scdb/internal/obs"
	"scdb/internal/storage"
	"scdb/internal/txn"
)

// Options configures Open. The zero value is a usable in-memory database.
// A zero field takes the default of the layer that reads it.
type Options struct {
	// Dir enables durability: the store keeps an append-only log and
	// snapshots there. Empty means in-memory.
	Dir string
	// Axioms seeds the ontology, one axiom per line:
	//
	//	concept C          declare a concept
	//	sub C D            C ⊑ D
	//	disjoint C D       C and D share no instances
	//	exists C R D       C ⊑ ∃R.D
	//	subrole R P        R ⊑ P
	//	trans R            R is transitive
	//	inverse R S        R and S are inverses
	//	domain R C         subjects of R are C
	//	range R C          objects of R are C
	//
	// Multi-word names use underscores ("Approved_Drugs"). A durable
	// database stores the lines it lacks at Open; the statement
	// ADD AXIOMS 'line', … adds more later.
	Axioms string
	// LinkRules drive online literal-to-entity link discovery.
	LinkRules []LinkRule
	// Patterns drive information extraction over Source.Texts.
	Patterns []Pattern
	// ERBlocking selects the entity-resolution candidate-generation
	// strategy: "token" (token-prefix blocks, the default), "ann"
	// (feature-hashed embedding index, top-K cosine neighbors — bounded
	// cost per entity, robust to leading-character typos), or "both"
	// (union of the two, maximum recall). Results change only in which
	// duplicate pairs are discovered; see DESIGN.md.
	ERBlocking string
	// DisableCache turns result materialization off.
	DisableCache bool
	// Parallelism sizes the morsel-driven query executor's worker pool and
	// Ingest's entity-resolution scoring fan-out. <=0 uses one worker per
	// CPU; 1 executes queries and scores serially. Query results and
	// curation state are identical for every setting.
	Parallelism int
	// MorselSize overrides the executor's rows-per-morsel granule (<=0 =
	// default 1024). Smaller morsels mean finer-grained cancellation at
	// some dispatch overhead; results are identical for every setting.
	MorselSize int
	// Sync selects the WAL durability policy for durable databases (Dir
	// set); in-memory databases ignore it. State is identical for every
	// setting — only the crash window differs.
	Sync SyncPolicy
	// WALSegmentBytes is the log segment rotation threshold for durable
	// databases (0 = 16 MiB). Appends crossing it seal the active segment
	// file and open the next; checkpoints delete sealed segments they
	// cover.
	WALSegmentBytes int64
	// CheckpointBytes triggers an automatic incremental checkpoint after
	// that many log bytes since the last one (0 = 64 MiB, negative
	// disables automatic checkpoints; Checkpoint still works manually).
	// A replica applies it between replicated batches.
	CheckpointBytes int64
	// ReadOnly opens the database as a read replica: Ingest and the
	// curation statements return ErrReadOnly, and nothing is ever written
	// locally except replicated log frames applied through the replication
	// plumbing (repl.go). Requires Dir.
	ReadOnly bool
}

// engineOptions is the one place a facade option becomes an engine option.
func (opts Options) engineOptions() (core.Options, error) {
	blocking, err := er.ParseBlocking(opts.ERBlocking)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Dir:             opts.Dir,
		Axioms:          opts.Axioms,
		LinkRules:       opts.LinkRules,
		Patterns:        opts.Patterns,
		ERBlocking:      blocking,
		DisableMatCache: opts.DisableCache,
		Parallelism:     opts.Parallelism,
		MorselSize:      opts.MorselSize,
		ReadOnly:        opts.ReadOnly,
		Storage: storage.Options{
			Sync:            opts.Sync,
			SegmentBytes:    opts.WALSegmentBytes,
			CheckpointBytes: opts.CheckpointBytes,
		},
	}, nil
}

// SyncPolicy selects when a durable database's committed log frames reach
// stable storage.
type SyncPolicy = storage.SyncPolicy

const (
	// SyncNone buffers log frames in user space; they reach disk on
	// checkpoint and close. Fastest; a crash loses the buffered tail.
	SyncNone = storage.SyncNone
	// SyncGroup makes every commit wait until its frame is fsynced: a lone
	// commit fsyncs inline, and commits that arrive while a flush is in
	// flight share the next disk round-trip (group commit).
	SyncGroup = storage.SyncGroup
)

// ParseSyncPolicy maps the flag spelling ("none", "group") to a policy;
// "" means SyncNone.
var ParseSyncPolicy = storage.ParseSyncPolicy

// DB is a self-curating database handle.
type DB struct {
	inner *core.DB
}

// Open creates or reopens a database.
func Open(opts Options) (*DB, error) {
	coreOpts, err := opts.engineOptions()
	if err != nil {
		return nil, err
	}
	db, err := core.Open(coreOpts)
	if err != nil {
		return nil, err
	}
	return &DB{inner: db}, nil
}

// Close flushes the observed schema and closes the store.
func (db *DB) Close() error { return db.inner.Close() }

// Ingest runs one source delivery through the curation pipeline:
// instance-layer storage, schema observation, entity/edge creation, link
// discovery, incremental entity resolution, information extraction, and
// incremental semantic inference. A delivery it cannot curate is refused
// whole, with ErrInvalidDelivery. An entity's stored row holds two columns
// of its own beside the delivered attributes, _key (the entity's Key) and
// _types (its Types), so a delivery that names an attribute _key or _types
// is refused too.
func (db *DB) Ingest(src Source) error {
	return db.IngestCtx(context.Background(), src)
}

// IngestCtx is Ingest with an observability scope: a context carrying a
// trace (as created by the service layer for traced ingest requests)
// receives per-stage spans for the curation pass — decode, batch install
// with WAL fsync wait, relation/ER, integration, and incremental
// inference. Cancellation is not observed mid-pass; a delivery lands
// atomically with respect to curation state.
func (db *DB) IngestCtx(ctx context.Context, src Source) error {
	d, err := toDelivery(src)
	if err != nil {
		return err
	}
	return db.IngestDelivery(ctx, d)
}

// IngestDelivery is IngestCtx of a delivery already in engine form, as the
// service layer decodes one off the wire: each entity's attribute map
// becomes its stored row, so the caller hands the maps over and never
// touches them again. Application code delivers through Ingest.
func (db *DB) IngestDelivery(ctx context.Context, d curate.Delivery) error {
	return db.inner.IngestCtx(ctx, d)
}

// toDelivery converts a public source into the engine's delivery. Each
// entity's attributes are converted straight into a map with room for the
// stored row's own two columns: the engine adds them, and that map is the
// row it stores.
func toDelivery(src Source) (curate.Delivery, error) {
	if src.Name == "" {
		return curate.Delivery{}, fmt.Errorf("scdb: source needs a name")
	}
	d := curate.Delivery{Source: src.Name, Texts: src.Texts, Entities: make([]curate.Arrival, len(src.Entities))}
	for i, e := range src.Entities {
		attrs, err := toRecord(e.Attrs, 2)
		if err != nil {
			return curate.Delivery{}, fmt.Errorf("scdb: entity %q: %w", e.Key, err)
		}
		d.Entities[i] = curate.Arrival{Key: e.Key, Types: e.Types, Attrs: attrs}
	}
	for _, l := range src.Links {
		var lit model.Value
		if l.ToKey == "" {
			v, err := toValue(l.Value)
			if err != nil {
				return curate.Delivery{}, fmt.Errorf("scdb: link %s-[%s]: %w", l.FromKey, l.Predicate, err)
			}
			lit = v
		}
		d.Links = append(d.Links, datagen.LinkSpec{
			FromKey:    l.FromKey,
			Predicate:  l.Predicate,
			ToKey:      l.ToKey,
			Literal:    lit,
			Confidence: l.Confidence,
		})
	}
	return d, nil
}

// Rows is a materialized query result with public values.
//
// The rows of a result, or of one row batch when the result came through
// a router or over the wire, are slices of one backing array, each with
// cap equal to len, so appending to a row copies it rather than writing
// into the next. A column whose cells share one kind holds them in one
// typed array, and a retained cell keeps that array alive: one batch's
// column, or one result's column on an embedded DB. A string cell decoded
// off the wire also keeps its frame's string table alive.
type Rows struct {
	Columns []string
	Data    [][]any
}

// QueryInfo reports how a query was answered. CacheHit, PlanCached and
// EstimatedCost are set for every statement. Plan, Rules and OperatorStats
// are the statement's explanation: they are filled only for a statement
// that asks for one (an EXPLAIN, EXPLAIN ANALYZE or TRACE prefix, or
// Explain), and stay empty for a plain statement, so a read pays for its
// rows and not for text. To profile a statement, run it under EXPLAIN
// ANALYZE.
type QueryInfo struct {
	// Plan is the optimized plan tree, one node per line.
	Plan string
	// Rules lists optimizer rewrites applied.
	Rules []string
	// CacheHit reports whether a materialized result was reused.
	CacheHit bool
	// PlanCached reports whether the optimized plan was reused from the
	// plan cache (parsing and optimization skipped; the statement still
	// executed, unlike CacheHit). Statements that differ only in comparison
	// literals (name = 'x', slot >= 10) share a plan.
	PlanCached bool
	// EstimatedCost is the optimizer's work estimate for the plan.
	EstimatedCost float64
	// OperatorStats is the per-operator runtime profile (rows in/out,
	// morsels, wall time) of the executed plan, rendered as a tree — the
	// same text EXPLAIN ANALYZE returns as its rows. Set for EXPLAIN
	// ANALYZE and TRACE only.
	OperatorStats string
}

// Query executes one SCQL statement. Besides SELECT, the curation
// statements INSERT INTO claims (…) VALUES (…), ADD AXIOMS 'line', … and
// REFRESH RICHNESS tell the database what a curator knows (DESIGN.md):
// each writes its rows to the log, then answers one row counting them.
func (db *DB) Query(q string) (*Rows, error) {
	rows, _, err := db.QueryInfo(q)
	return rows, err
}

// QueryCtx executes one SCQL statement under the context: when ctx is
// canceled or its deadline expires, the executor's workers stop within one
// morsel boundary, storage scans stop producing, and the context's error
// is returned. This is the entry point for servers and other callers that
// need per-request deadlines.
func (db *DB) QueryCtx(ctx context.Context, q string) (*Rows, error) {
	rows, _, err := db.QueryInfoCtx(ctx, q)
	return rows, err
}

// QueryInfo executes one SCQL statement and reports how it was answered.
func (db *DB) QueryInfo(q string) (*Rows, *QueryInfo, error) {
	return db.QueryInfoCtx(context.Background(), q)
}

// QueryInfoCtx is QueryInfo with cancellation (see QueryCtx).
func (db *DB) QueryInfoCtx(ctx context.Context, q string) (*Rows, *QueryInfo, error) {
	res, info, err := db.inner.QueryCtx(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	return &Rows{Columns: res.Columns, Data: FromRows(nil, res.Rows)}, publicInfo(info), nil
}

// publicInfo is the one place the engine's QueryInfo becomes the facade's.
func publicInfo(info *core.QueryInfo) *QueryInfo {
	pub := &QueryInfo{
		Plan:          info.Plan,
		Rules:         info.Rules,
		CacheHit:      info.CacheHit,
		PlanCached:    info.PlanCached,
		EstimatedCost: info.EstimatedCost,
	}
	if info.OperatorStats != nil {
		pub.OperatorStats = info.OperatorStats.Render()
	}
	return pub
}

// QueryBatchesCtx executes one statement and streams its result rows to
// emit in columnar batches as they drain off the morsel executor, without
// materializing the public row set first. The batch values are the
// engine's internal representation (model.Value) — this is the
// zero-conversion path the network service layer encodes from; embedded
// applications should use QueryCtx. cols is identical on every call and
// also returned (a statement with no rows never calls emit). emit
// returning false aborts the statement. Emitted row slices are shared
// with the result cache and must not be mutated.
func (db *DB) QueryBatchesCtx(ctx context.Context, q string, emit func(cols []string, batch [][]model.Value) bool) ([]string, *QueryInfo, error) {
	cols, info, err := db.inner.QueryStreamCtx(ctx, q, emit)
	if err != nil {
		return nil, nil, err
	}
	return cols, publicInfo(info), nil
}

// Explain returns the optimized plan without executing: it is the EXPLAIN
// statement's answer.
func (db *DB) Explain(q string) (*QueryInfo, error) {
	_, info, err := db.QueryInfo("EXPLAIN " + q)
	return info, err
}

// ErrInvalidDelivery is returned by Ingest for a delivery it refuses
// before writing any of it: an entity without a key, an entity with an
// attribute named _key or _types (the stored row's own columns), or a link
// naming a key that is neither in the delivery nor already ingested for
// its source.
var ErrInvalidDelivery = curate.ErrInvalidDelivery

// ErrConflict is returned by Tx.Commit on a write-write conflict
// (first-committer-wins).
var ErrConflict = txn.ErrConflict

// ErrEnrichmentPhantom is returned by Tx.Commit under Snapshot isolation
// when the semantic layers changed under a transaction that read them.
var ErrEnrichmentPhantom = txn.ErrEnrichmentPhantom

// IsolationLevel selects transaction semantics.
type IsolationLevel int

const (
	// Snapshot is snapshot isolation with enrichment-phantom aborts: a
	// transaction that consulted the semantic layers aborts if enrichment
	// advanced under it.
	Snapshot IsolationLevel = iota
	// EventualEnrichment never aborts on enrichment churn; commits carry
	// a staleness bound instead.
	EventualEnrichment
)

// Tx is a transaction over the instance layer.
type Tx struct {
	inner *txn.Txn
}

// Begin starts a transaction.
func (db *DB) Begin(level IsolationLevel) *Tx {
	l := txn.Snapshot
	if level == EventualEnrichment {
		l = txn.EventualEnrichment
	}
	return &Tx{inner: db.inner.Begin(l)}
}

// Insert buffers a row; the returned ID is final and remains valid after
// commit.
func (tx *Tx) Insert(table string, rec Record) (uint64, error) {
	r, err := toRecord(rec, 0)
	if err != nil {
		return 0, err
	}
	id, err := tx.inner.Insert(table, r)
	return uint64(id), err
}

// Update buffers an overwrite.
func (tx *Tx) Update(table string, id uint64, rec Record) error {
	r, err := toRecord(rec, 0)
	if err != nil {
		return err
	}
	return tx.inner.Update(table, storage.RowID(id), r)
}

// Delete buffers a deletion.
func (tx *Tx) Delete(table string, id uint64) error {
	return tx.inner.Delete(table, storage.RowID(id))
}

// Get reads at the transaction's snapshot, own writes included.
func (tx *Tx) Get(table string, id uint64) (Record, bool, error) {
	rec, ok, err := tx.inner.Get(table, storage.RowID(id))
	if err != nil || !ok {
		return nil, ok, err
	}
	out := Record{}
	for k, v := range rec {
		out[k] = fromValue(v)
	}
	return out, true, nil
}

// MarkSemanticRead records that the transaction consulted the semantic
// layers (arming enrichment-phantom validation under Snapshot).
func (tx *Tx) MarkSemanticRead() { tx.inner.MarkSemanticRead() }

// Commit validates and installs the write set. The returned staleness is
// how many enrichment versions passed during the transaction (always 0
// under Snapshot).
func (tx *Tx) Commit() (staleness uint64, err error) {
	info, err := tx.inner.Commit()
	if err != nil {
		return 0, err
	}
	return info.EnrichmentStaleness, nil
}

// Abort discards the transaction.
func (tx *Tx) Abort() { tx.inner.Abort() }

// ERStats reports entity-resolution work counters — the cost side of
// curation that Merges alone hides.
type ERStats = er.Stats

// Stats summarizes the engine.
type Stats = core.Stats

// Stats returns a snapshot of the engine's state.
func (db *DB) Stats() Stats { return db.inner.Stats() }

// Registry is the node's self-description: its instruments and system
// relations, which FROM sys.<name> reads and a server fronting the database
// adds its own to.
func (db *DB) Registry() *obs.Registry { return db.inner.Registry() }
