package core

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scdb/internal/graph"
	"scdb/internal/model"
	"scdb/internal/obs"
	"scdb/internal/optimizer"
	"scdb/internal/query"
	"scdb/internal/storage"
)

// QueryInfo reports how a query was answered: cache behaviour, the cost
// estimate and the answer mode, and for a statement that asks to be
// explained (EXPLAIN, EXPLAIN ANALYZE, TRACE) the final plan,
// the optimizer rewrites and, when it executed, the per-operator runtime
// statistics tree. A plain statement leaves Plan, Rules and OperatorStats
// empty: nothing renders text no caller reads.
type QueryInfo struct {
	Plan             string
	Rules            []string
	EstimatedCost    float64
	EstimatedMorsels int
	CacheHit         bool
	// PlanCached reports that parse/optimize was skipped because the plan
	// cache held this statement's shape at the current schema and ontology
	// versions: the statement bound its literals to that plan and still
	// executed, unlike CacheHit.
	PlanCached    bool
	Mode          query.AnswerMode
	OperatorStats *query.OpStats
}

// execOptions maps the engine's knobs onto the executor's.
func (db *DB) execOptions(ctx context.Context, stmt *query.SelectStmt) query.ExecOptions {
	p := db.opts.Parallelism
	if p <= 0 {
		p = runtime.NumCPU()
	}
	return query.ExecOptions{
		Semantic:    stmt.Semantics,
		Parallelism: p,
		MorselSize:  db.opts.MorselSize,
		Ctx:         ctx,
	}
}

// Query parses, optimizes, and executes one SCQL statement. An EXPLAIN
// prefix returns the optimized plan as rows instead of executing; EXPLAIN
// ANALYZE executes and returns the per-operator stats tree as rows.
func (db *DB) Query(src string) (*query.Result, QueryInfo, error) {
	return db.QueryCtx(context.Background(), src)
}

// QueryCtx is Query with end-to-end cancellation: the context is observed
// by the executor's workers between morsels and by the storage scans
// between chunks, so a canceled or deadline-expired statement stops
// consuming CPU within one morsel boundary and returns the context's
// error. This is the entry point the network service layer drives.
func (db *DB) QueryCtx(ctx context.Context, src string) (res *query.Result, info QueryInfo, err error) {
	res, err = db.queryCtx(ctx, src, nil, &info)
	return res, info, err
}

// QueryStreamCtx executes one statement and delivers result rows to sink
// in columnar batches as they drain off the morsel executor, instead of
// materializing the whole result first. A statement with no rows never
// calls the sink (the returned columns cover that case). The sink
// returning false aborts the query with query.ErrEmitStopped. How the
// statement was answered is filled into *info.
//
// Statements that answer from materialized text (EXPLAIN, TRACE) or from
// the result cache still stream: their rows are chunked through the sink,
// so it sees one uniform shape for every statement.
func (db *DB) QueryStreamCtx(ctx context.Context, src string, sink query.BatchSink, info *QueryInfo) ([]string, error) {
	res, err := db.queryCtx(ctx, src, sink, info)
	if err != nil {
		return nil, err
	}
	return res.Columns, nil
}

// queryCtx is the shared spine of QueryCtx and QueryStreamCtx. With a nil
// sink the result is fully materialized; with a sink, executed rows stream
// through it (and are also kept, so the materialization cache stays
// populated — the batches share row slices, so this costs at most one
// slice append per batch). The info is filled in place: a copy of it in
// every layer would deepen the request stack the executor runs at the end of.
func (db *DB) queryCtx(ctx context.Context, src string, sink query.BatchSink, info *QueryInfo) (*query.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, back, err := db.read(ctx, src, sink, nil, info)
	switch {
	case back == nil:
		return res, err
	case back.Curate != nil:
		// A curation statement writes, so it runs under the write lock,
		// once read has let go of the read lock.
		*info = QueryInfo{}
		return db.curate(back.Curate, sink)
	}
	// The statement reads system relations, whose gauges take the read
	// lock themselves: their rows are built before read takes it again.
	res, _, err = db.read(ctx, src, sink, SystemRelations(db.reg, back), info)
	return res, err
}

// read answers a statement under the db.mu read lock, over sys, the rows of
// the system relations it reads. A curation statement, and one that reads
// system relations when sys is nil, is neither cached nor executed here:
// read hands it back.
func (db *DB) read(ctx context.Context, src string, sink query.BatchSink, sys query.Relations, info *QueryInfo) (*query.Result, *query.SelectStmt, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	*info = QueryInfo{}
	planStart := time.Now()

	// Plan-cache probe: one lexer pass cuts the statement's shape, the key,
	// and the values of its lifted literals, the arguments this execution
	// binds. EXPLAIN statements are never cached, so they can't hit either.
	var stmt *query.SelectStmt
	var plan query.Node
	// system marks a statement over system relations: its rows are built
	// per statement, so the materialization cache never holds them.
	var system bool
	var keyBuf [256]byte
	var argBuf [8]model.Value
	pk, args, err := planKey(keyBuf[:0], argBuf[:0], db.store.SchemaVersion(), db.base+db.onto.Version(), src)
	if err != nil {
		return nil, nil, err
	}
	if ent, ok := db.plans.Get(pk); ok {
		stmt, plan, system = ent.stmt, ent.plan, ent.system
		info.Plan = ent.planText
		info.Rules = ent.rules
		info.EstimatedCost = ent.cost
		info.EstimatedMorsels = ent.morsels
		info.PlanCached = true
	}
	if stmt == nil {
		if stmt, err = query.ParseShape(src); err != nil {
			return nil, nil, err
		}
		if stmt.Curate != nil {
			return nil, stmt, nil
		}
		system = readsSystem(stmt)
	}
	if system && sys == nil && (stmt.Analyze || !stmt.Explain) {
		return nil, stmt, nil
	}
	info.Mode = stmt.Mode

	// TRACE: adopt the trace the service layer opened (it already holds
	// frame-decode and admission-wait spans) or start a fresh one for
	// embedded callers. tr stays nil for untraced statements, and every
	// span call below no-ops on nil — the plain path pays one extra
	// time.Now and nil checks, nothing else.
	var tr *obs.Trace
	if stmt.Trace {
		if tr = obs.FromContext(ctx); tr == nil {
			tr = obs.NewTrace()
		}
	}
	root := tr.Root("request")

	// Traced statements always execute: a materialization-cache hit would
	// short-circuit the very work the trace is meant to expose. (They may
	// still hit the plan cache — the trace reports that as plan_cached.)
	// The materialization-cache key is the statement's canonical text with
	// this execution's values.
	var key string
	var ver uint64
	matCached := !stmt.Explain && !stmt.Trace && !system && !db.opts.DisableMatCache
	if matCached {
		key, ver = stmt.StringWith(args), db.answerVersion()
		if v, ok := db.matCache.Get(key, ver); ok {
			info.CacheHit = true
			return db.answer(v.(*query.Result), sink)
		}
	}
	env := &queryEnv{db: db, ctx: ctx, mode: stmt.Mode, fuzzyT: stmt.FuzzyThreshold, sys: sys}
	env.args = append(env.argBuf[:0], args...)
	if plan == nil {
		if err := checkCalls(stmt); err != nil {
			return nil, nil, err
		}
		plan, err = query.BuildPlan(stmt, env)
		if err != nil {
			return nil, nil, err
		}
		var rep *optimizer.Report
		plan, rep = optimizer.Optimize(plan, db.optimizerOptions(stmt))
		if explained(stmt) {
			info.Plan = query.Explain(plan)
			info.Rules = rep.Rules
		}
		info.EstimatedCost = rep.EstimatedCost
		info.EstimatedMorsels = rep.EstimatedMorsels
		if !stmt.Explain {
			// Plans and statements are immutable after optimization, so the
			// cached entry can serve concurrent executions. Only a TRACE
			// entry carries plan text and rules.
			db.plans.Put(string(pk), &planEntry{
				stmt: stmt, plan: plan, planText: info.Plan, rules: info.Rules,
				cost: info.EstimatedCost, morsels: info.EstimatedMorsels, system: system,
			})
		}
	}
	planSpan := root.ChildDur("plan", time.Since(planStart))
	planSpan.SetBool("plan_cached", info.PlanCached)
	planSpan.SetInt("est_morsels", int64(info.EstimatedMorsels))
	if stmt.Explain && !stmt.Analyze {
		return db.answer(planResult(info.Plan), sink)
	}
	execSpan := root.Child("execute")
	opts := db.execOptions(ctx, stmt)
	opts.Args = env.args
	// Plain statements stream straight off the executor through kept, which
	// keeps the rows for the materialization cache; EXPLAIN ANALYZE and
	// TRACE answer with rendered text, and stream that text instead.
	stream := sink != nil && !stmt.Explain && !stmt.Trace
	if stream {
		env.kept.to = sink
		opts.Sink = &env.kept
	}
	res, st, err := query.ExecuteOpts(plan, env, opts)
	execSpan.End()
	if err != nil {
		return nil, nil, err
	}
	if explained(stmt) {
		info.OperatorStats = st
	}
	if stmt.Explain { // EXPLAIN ANALYZE: rows are the annotated plan
		return db.answer(planResult(st.Render()), sink)
	}
	if stmt.Trace {
		execSpan.SetInt("rows_out", int64(len(res.Rows)))
		addOpSpans(execSpan, st)
		return db.answer(traceResult(tr), sink)
	}
	if stream {
		res.Rows = env.kept.rows
	}
	if matCached {
		db.matCache.Put(key, res, info.EstimatedCost, ver)
	}
	return res, nil, nil
}

// answer is read's answer from a materialized result (a cached answer, a
// plan, a trace), chunked through the sink so it sees one uniform shape.
func (db *DB) answer(res *query.Result, sink query.BatchSink) (*query.Result, *query.SelectStmt, error) {
	if sink != nil {
		if err := query.EmitChunks(res.Columns, res.Rows, db.opts.MorselSize, sink); err != nil {
			return nil, nil, err
		}
	}
	return res, nil, nil
}

// keptRows is a streamed statement's sink: it hands each batch on and
// keeps its rows, which the batch shares, for the materialization cache.
type keptRows struct {
	to   query.BatchSink
	rows [][]model.Value
}

func (k *keptRows) EmitBatch(cols []string, batch [][]model.Value) bool {
	if !k.to.EmitBatch(cols, batch) {
		return false
	}
	if k.rows == nil {
		k.rows = slices.Clip(batch) // a sink may keep the batch itself
	} else {
		k.rows = append(k.rows, batch...)
	}
	return true
}

// addOpSpans mirrors the executor's per-operator statistics tree as trace
// spans under the execute span. Each operator's Elapsed is busy time summed
// across workers, so these are attached as completed duration-only spans
// rather than wall-clock children.
func addOpSpans(parent *obs.Span, st *query.OpStats) {
	s := parent.ChildDur("op:"+st.Node.Label(), time.Duration(atomic.LoadInt64((*int64)(&st.Elapsed))))
	s.SetInt("rows_in", atomic.LoadInt64(&st.RowsIn))
	s.SetInt("rows_out", atomic.LoadInt64(&st.RowsOut))
	s.SetInt("morsels", atomic.LoadInt64(&st.Morsels))
	if st.ShowPruned {
		s.SetInt("pruned", st.Pruned)
	}
	if st.IndexName != "" {
		s.SetStr("index", st.IndexName)
	}
	for _, c := range st.Children {
		addOpSpans(s, c)
	}
}

// traceResult renders the span tree as a one-column result, one row per
// JSON line, so TRACE output flows through the ordinary result path (and
// over the wire) unchanged. The root span is still open here — the service
// layer closes it when the response goes out — so its dur_us reads as
// time-so-far at render.
func traceResult(tr *obs.Trace) *query.Result {
	res := &query.Result{Columns: []string{"trace"}}
	for _, line := range strings.Split(strings.TrimRight(tr.JSON(), "\n"), "\n") {
		res.Rows = append(res.Rows, []model.Value{model.String(line)})
	}
	return res
}

// planResult renders plan or stats text as a one-column result, one row
// per line, so EXPLAIN output flows through the ordinary result path.
func planResult(text string) *query.Result {
	res := &query.Result{Columns: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, []model.Value{model.String(line)})
	}
	return res
}

// explained reports whether a statement asks for its explanation: the plan
// text, the rewrite log and the operator-stats tree.
func explained(stmt *query.SelectStmt) bool { return stmt.Explain || stmt.Trace }

// optimizerOptions wires the semantic layer into the optimizer. Semantic
// rewrites are only sound when ISA consults inference (WITH SEMANTICS), so
// they follow the statement's flag.
func (db *DB) optimizerOptions(stmt *query.SelectStmt) optimizer.Options {
	return optimizer.Options{
		DisableSemantic:    !stmt.Semantics || db.opts.DisableSemanticOpt,
		DisableAccessPaths: db.opts.DisableAccessPaths,
		Explain:            explained(stmt),
		Semantics:          db.onto,
		Stats:              dbStats{db},
	}
}

// dbStats feeds instance-layer cardinalities to the optimizer.
type dbStats struct{ db *DB }

func (s dbStats) TableCard(name string) int {
	if r := relations[name]; r.bare {
		return r.card(s.db)
	}
	if t, ok := s.db.store.Table(name); ok {
		return t.Len()
	}
	return 0
}

func (s dbStats) TotalEntities() int { return s.db.graph.NumEntities() }

// queryEnv implements query.Env and query.Resolver over the engine, scoped
// to one statement's answer mode. Name-to-entity lookups are memoized per
// statement: REACHES('Osteosarcoma', ...) resolves its target once, not
// once per candidate row. The executor evaluates predicates from a pool of
// workers, so the memo is mutex-guarded.
type queryEnv struct {
	db *DB
	// ctx is the statement's cancellation scope, threaded into every
	// storage scan so canceled queries stop producing rows at the source.
	ctx    context.Context
	mode   query.AnswerMode
	fuzzyT float64
	// sys holds the rows of the system relations the statement reads.
	sys query.Relations
	// args are the values the statement's Params bind, kept in argBuf when
	// they fit, so binding allocates nothing of its own.
	args   []model.Value
	argBuf [4]model.Value
	// kept is the statement's sink when it streams.
	kept keptRows

	namesMu sync.Mutex
	names   map[string]model.EntityID

	// csr is the snapshot REACHES and LINKED walk, taken by the
	// statement's first walk; masks holds their predicate masks, copied on
	// write, so that a row reads them without a lock.
	csrOnce sync.Once
	csr     *graph.CSR
	masks   atomic.Pointer[[]predMask]
}

// predMask is the mask of one traversal predicate as a statement reads it.
type predMask struct {
	pred     string
	semantic bool
	mask     graph.Mask
}

func (e *queryEnv) lookupName(text string) model.EntityID {
	e.namesMu.Lock()
	if id, ok := e.names[text]; ok {
		e.namesMu.Unlock()
		return id
	}
	e.namesMu.Unlock()
	// Resolve outside the lock — the graph scan is the expensive part, and
	// concurrent duplicate lookups are deterministic and idempotent.
	id := e.db.lookupByText(text)
	e.namesMu.Lock()
	if e.names == nil {
		e.names = map[string]model.EntityID{}
	}
	e.names[text] = id
	e.namesMu.Unlock()
	return id
}

func (e *queryEnv) HasTable(name string) bool {
	if relations[name].bare || obs.IsSystem(name) && e.db.reg.HasRelation(name) {
		return true
	}
	_, ok := e.db.store.Table(name)
	return ok
}

func (e *queryEnv) HasConcept(name string) bool { return e.db.onto.HasConcept(name) }

// ScanTable implements query.Env's table scan. A plain scan yields
// fixed-size chunks so binding and filtering pipeline with it. With zone
// conjuncts the storage layer answers with a candidate superset via
// secondary-index lookup and zone-map pruning (self-creating indexes from
// the access traffic this very call records, once, as it opens the scan).
// A bare relation (claims) or a system relation has no storage access
// paths — it is built and chunked; the executor's re-filter applies the
// zone conjuncts.
func (e *queryEnv) ScanTable(name string, zone []model.Conjunct, size int) (query.ScanCursor, bool) {
	if e.sys != nil {
		if cur, ok := e.sys.ScanTable(name, nil, size); ok {
			return cur, true
		}
	}
	if r := relations[name]; r.bare {
		cur, err := r.scan(e, nil, size)
		return cur, err == nil
	}
	t, ok := e.db.store.Table(name)
	if !ok {
		return nil, false
	}
	if len(zone) == 0 {
		return &tableCursor{t.ScanMorselsCtx(e.ctx, e.db.store.Now(), size)}, true
	}
	return &tableCursor{t.ScanWhere(e.db.store.Now(), zone, storage.ScanOptions{
		NoPrune: e.db.opts.DisableZonePruning,
		NoIndex: e.db.opts.DisableIndexScan,
		NoAuto:  e.db.opts.DisableIndexScan,
		Ctx:     e.ctx,
	})}, true
}

// tableCursor is a storage scan as the executor pulls it.
type tableCursor struct{ storage.Cursor }

func (c *tableCursor) Info() query.PushedScanInfo { return query.PushedScanInfo(c.Cursor.Info()) }

// ScanConcept implements query.Env's concept scan: entity records are
// built a chunk per pull, so LIMIT stops the build early.
func (e *queryEnv) ScanConcept(concept string, semantic bool, size int) (query.ScanCursor, bool) {
	if !e.db.onto.HasConcept(concept) {
		return nil, false
	}
	c := &conceptCursor{e: e, semantic: semantic, size: size}
	if semantic {
		c.ids = e.db.reasoner.Instances(concept)
	} else {
		c.ids = e.db.graph.EntitiesByType(concept)
	}
	if c.size <= 0 {
		c.size = query.DefaultMorselSize
	}
	return c, true
}

// conceptCursor builds the records of a concept's entities, size of them a
// pull, until ids runs out or the statement's context ends.
type conceptCursor struct {
	e        *queryEnv
	ids      []model.EntityID // the entities not built yet
	semantic bool
	size     int
}

func (c *conceptCursor) Next() []model.Record {
	if c.e.ctx.Err() != nil {
		return nil
	}
	var batch []model.Record
	for len(c.ids) > 0 && len(batch) < c.size {
		if rec, ok := c.e.conceptRecord(c.ids[0], c.semantic); ok {
			if batch == nil {
				batch = make([]model.Record, 0, c.size)
			}
			batch = append(batch, rec)
		}
		c.ids = c.ids[1:]
	}
	return batch
}

func (c *conceptCursor) Info() query.PushedScanInfo { return query.PushedScanInfo{} }

// conceptRecord projects one entity into the concept-scan row shape.
func (e *queryEnv) conceptRecord(id model.EntityID, semantic bool) (model.Record, bool) {
	ent, ok := e.db.graph.Entity(id)
	if !ok {
		return nil, false
	}
	rec := ent.Attrs.Clone()
	rec["_id"] = model.Ref(ent.ID)
	rec[model.KeyAttr] = model.String(ent.Key)
	rec["_source"] = model.String(ent.Source)
	rec[model.TypesAttr] = e.typesList(ent.ID, semantic)
	return rec, true
}

func (e *queryEnv) typesList(id model.EntityID, semantic bool) model.Value {
	var names []string
	if semantic {
		names = e.db.reasoner.EntityTypes(id)
	} else if ent, ok := e.db.graph.Entity(id); ok {
		names = append([]string(nil), ent.Types...)
	}
	sort.Strings(names)
	vals := make([]model.Value, len(names))
	for i, n := range names {
		vals[i] = model.String(n)
	}
	return model.List(vals...)
}

func (e *queryEnv) IsA(v model.Value, concept string, semantic bool) model.Truth {
	id, ok := v.AsRef()
	if !ok {
		return model.Unknown
	}
	if semantic {
		return model.TruthOf(e.db.reasoner.HasType(id, concept))
	}
	ent, ok := e.db.graph.Entity(id)
	if !ok {
		return model.Unknown
	}
	return model.TruthOf(ent.HasType(concept))
}

func (e *queryEnv) Reaches(from model.Value, target string, k int, pred string, semantic bool) model.Truth {
	id, ok := from.AsRef()
	if !ok {
		return model.Unknown
	}
	tid := e.lookupName(target)
	if tid == model.NoEntity {
		return model.False
	}
	if e.db.graph.Resolve(id) == e.db.graph.Resolve(tid) {
		return model.True
	}
	return e.walk(id, tid, k, pred, semantic)
}

func (e *queryEnv) Linked(a, b model.Value, pred string, semantic bool) model.Truth {
	ia, ok1 := a.AsRef()
	ib, ok2 := b.AsRef()
	if !ok1 || !ok2 {
		return model.Unknown
	}
	return e.walk(ia, ib, 1, pred, semantic)
}

// walk answers whether to is within k hops of from over the edges pred
// admits: every edge if pred is empty, else pred's own, and under WITH
// SEMANTICS every role R ⊑* pred's too, as the reasoner reads a role. The
// snapshot and each mask are made once per statement, so every row's walk
// reads one graph version.
func (e *queryEnv) walk(from, to model.EntityID, k int, pred string, semantic bool) model.Truth {
	e.csrOnce.Do(func() { e.csr = e.db.csrSnapshot() })
	var mask graph.Mask
	if pred != "" {
		mask = e.mask(pred, semantic)
	}
	return model.TruthOf(e.csr.Reaches(from, to, k, mask))
}

// mask returns the statement's mask for pred, making it on first use. A
// statement names few predicates, so a scan finds one. A new mask is
// published by compare-and-swap; a row that loses the race scans again.
func (e *queryEnv) mask(pred string, semantic bool) graph.Mask {
	for {
		old := e.masks.Load()
		var masks []predMask
		if old != nil {
			masks = *old
		}
		for _, m := range masks {
			if m.pred == pred && m.semantic == semantic {
				return m.mask
			}
		}
		m := e.csr.Mask(func(r string) bool { return r == pred || semantic && e.db.onto.SubsumesRole(pred, r) })
		next := append(slices.Clip(masks), predMask{pred, semantic, m})
		if e.masks.CompareAndSwap(old, &next) {
			return m
		}
	}
}

func (e *queryEnv) TypesOf(v model.Value, semantic bool) model.Value {
	id, ok := v.AsRef()
	if !ok {
		return model.Null()
	}
	return e.typesList(id, semantic)
}

func (e *queryEnv) PredictType(v model.Value) model.Value {
	id, ok := v.AsRef()
	if !ok {
		return model.Null()
	}
	ent, ok := e.db.graph.Entity(id)
	if !ok {
		return model.Null()
	}
	tp := e.db.typePredictor()
	if tp == nil {
		return model.Null()
	}
	preds := tp.Predict(ent, 1)
	if len(preds) == 0 {
		return model.Null()
	}
	return model.String(preds[0].Concept)
}
