package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scdb/internal/model"
)

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    [][]model.Value
}

// ZoneConjunct is one sargable conjunct pushed below a scan: attr OP
// literal, or attr IN (literals). It mirrors storage.ZonePred without the
// import (query cannot depend on storage).
type ZoneConjunct struct {
	Attr string
	Op   string // "=", "<", "<=", ">", ">=", "in"
	Val  model.Value
	Vals []model.Value // for "in"
}

// PushedScanInfo reports what a pushed-down scan did: the index it chose
// (empty for a plain zone scan) and how many zone segments it pruned.
type PushedScanInfo struct {
	Index    string
	Segments int
	Pruned   int
}

// ExecOptions tunes ExecuteOpts.
type ExecOptions struct {
	// Semantic enables inferred types in ISA/ConceptScan (WITH SEMANTICS).
	Semantic bool
	// Parallelism is the worker-pool size; <=0 means GOMAXPROCS, 1 runs
	// every operator inline. Results are identical for every value.
	Parallelism int
	// MorselSize overrides the rows-per-morsel granule (<=0 = default).
	// It must be held constant for results involving multi-morsel float
	// aggregation to be bit-identical across runs.
	MorselSize int
	// Ctx cancels the query: every worker observes it between morsels and
	// scan producers stop emitting, so a canceled or deadline-expired query
	// frees its workers within one morsel boundary. Nil means Background.
	Ctx context.Context
	// EmitBatch switches ExecuteOpts to streaming delivery: result rows are
	// handed to the sink in columnar batches as morsels drain off the
	// pipeline, and the returned Result carries only the columns (Rows stays
	// nil). cols is identical on every call. Returning false aborts the
	// query with ErrEmitStopped. When the plan fixes no output schema
	// (SELECT * over heterogeneous rows), rows are materialized first to
	// union the columns, then emitted in morsel-size chunks. Emitted row
	// slices must not be mutated by the sink.
	EmitBatch func(cols []string, batch [][]model.Value) bool
}

// ErrEmitStopped reports that an EmitBatch sink returned false: the query
// was aborted mid-stream at the sink's request (typically a dead network
// connection), not by an engine failure.
var ErrEmitStopped = errors.New("query: batch sink stopped consumption")

// Execute runs the plan serially — the exact legacy behavior. semantic
// enables inferred types in ISA/ConceptScan (the WITH SEMANTICS modifier).
func Execute(n Node, env Env, semantic bool) (*Result, error) {
	res, _, err := ExecuteOpts(n, env, ExecOptions{Semantic: semantic, Parallelism: 1})
	return res, err
}

// ExecuteOpts runs the plan with morsel-driven parallelism and returns the
// per-operator stats tree alongside the result. Scans emit fixed-size
// morsels; Filter/Project/probe stages run per-morsel on a worker pool;
// pipeline breakers (Join build, Aggregate, Distinct merge, Sort, TopK)
// merge per-morsel partial states in morsel order, so the output is
// identical for every Parallelism value.
func ExecuteOpts(n Node, env Env, opts ExecOptions) (*Result, *OpStats, error) {
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	size := opts.MorselSize
	if size <= 0 {
		size = DefaultMorselSize
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	x := &execCtx{ev: &evalCtx{env: env, semantic: opts.Semantic}, workers: workers, size: size, ctx: ctx}
	s, cols, st, err := x.build(n)
	if err != nil {
		x.wg.Wait()
		return nil, nil, err
	}
	if opts.EmitBatch != nil && cols != nil {
		// Streaming delivery: the plan fixed its output schema, so each
		// drained morsel can be materialized and emitted without waiting for
		// the rest of the result.
		err := emitStream(ctx, s, cols, opts.EmitBatch)
		s.stop()
		x.wg.Wait()
		if err != nil {
			return nil, st, err
		}
		return &Result{Columns: cols}, st, nil
	}
	rows, err := drainRows(ctx, s)
	// Join every worker and producer goroutine before returning: they hold
	// references into the environment, which may only be valid while the
	// caller's locks are held.
	s.stop()
	x.wg.Wait()
	if err != nil {
		return nil, st, err
	}
	if cols == nil {
		// The plan's top produced raw rows (no projection) — normalize.
		cols = unionColumns(rows)
	}
	if opts.EmitBatch != nil {
		// Raw-row plan: columns are only known now, so stream the
		// materialized result in morsel-size chunks.
		for lo := 0; lo < len(rows); lo += size {
			hi := min(lo+size, len(rows))
			batch := make([][]model.Value, 0, hi-lo)
			for _, r := range rows[lo:hi] {
				batch = append(batch, materializeRow(cols, r))
			}
			if !opts.EmitBatch(cols, batch) {
				return nil, st, ErrEmitStopped
			}
		}
		return &Result{Columns: cols}, st, nil
	}
	res := &Result{Columns: cols, Rows: make([][]model.Value, 0, len(rows))}
	for _, r := range rows {
		res.Rows = append(res.Rows, materializeRow(cols, r))
	}
	return res, st, nil
}

// materializeRow projects one row onto the display columns. An output row
// whose labels they are is handed on as it is; a bound row (SELECT *, whose
// columns are the union over heterogeneous records) is read cell by cell.
func materializeRow(cols []string, r Row) []model.Value {
	if sc := r.sh.cols; len(r.recs) == 0 && len(sc) == len(cols) && (len(cols) == 0 || &sc[0] == &cols[0]) {
		return r.vals
	}
	out := make([]model.Value, len(cols))
	for i, c := range cols {
		out[i] = r.display(c)
	}
	return out
}

// display reads the cell a display column names, in the order unionColumns
// names them: binding.name, else a slot's label, else the attribute of
// whichever frame carries it, else null.
func (r Row) display(col string) model.Value {
	if i := strings.Index(col, "."); i >= 0 {
		if f := slices.Index(r.sh.bindings, col[:i]); f >= 0 {
			if v, ok := r.recs[f][col[i+1:]]; ok {
				return v
			}
		}
	}
	if i := slices.Index(r.sh.cols, col); i >= 0 {
		return r.vals[i]
	}
	for _, rec := range r.recs {
		if v, ok := rec[col]; ok {
			return v
		}
	}
	return model.Null()
}

// emitStream drains a stream morsel by morsel, materializing each against
// the fixed column schema and handing it to the sink. The context is
// observed between morsels, exactly like drainRows.
func emitStream(ctx context.Context, s *stream, cols []string, emit func([]string, [][]model.Value) bool) error {
	for {
		if err := ctx.Err(); err != nil {
			s.stop()
			return err
		}
		m, ok, err := s.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if len(m.rows) == 0 {
			continue
		}
		batch := make([][]model.Value, 0, len(m.rows))
		for _, r := range m.rows {
			batch = append(batch, materializeRow(cols, r))
		}
		if !emit(cols, batch) {
			s.stop()
			return ErrEmitStopped
		}
	}
}

// execCtx carries the per-query execution configuration. ev is read-only
// after construction and therefore safe to share across workers.
type execCtx struct {
	ev      *evalCtx
	workers int
	size    int
	ctx     context.Context
	wg      sync.WaitGroup // joins stage workers and scan producers
}

// stage wraps parStage with a per-morsel cancellation check: a canceled
// context surfaces as the stage's error before the next morsel is
// processed, so workers exit within one morsel boundary.
func (x *execCtx) stage(in *stream, workers int, fn func(morsel) (morsel, error)) *stream {
	return parStage(in, workers, &x.wg, func(m morsel) (morsel, error) {
		if err := x.ctx.Err(); err != nil {
			return morsel{}, err
		}
		return fn(m)
	})
}

// build lowers a plan node to a morsel stream; cols is non-nil once a
// projection or aggregation fixed the output schema (binding "" labels).
func (x *execCtx) build(n Node) (s *stream, cols []string, st *OpStats, err error) {
	switch n := n.(type) {
	case *ScanNode:
		return x.buildScan(n)
	case *IndexScanNode:
		return x.buildIndexScan(n)
	case *ConceptScanNode:
		return x.buildConceptScan(n)
	case *EmptyNode:
		return emptyStream(), nil, newOpStats(n), nil
	case *RowsNode:
		return x.buildRows(n)
	case *FilterNode:
		return x.buildFilter(n)
	case *JoinNode:
		return x.buildJoin(n)
	case *ProjectNode:
		return x.buildProject(n)
	case *AggregateNode:
		return x.buildAggregate(n)
	case *DistinctNode:
		return x.buildDistinct(n)
	case *SortNode:
		return x.buildSort(n)
	case *TopKNode:
		return x.buildTopK(n)
	case *LimitNode:
		return x.buildLimit(n)
	}
	return nil, nil, nil, fmt.Errorf("query: cannot execute %T", n)
}

// bindStage turns record morsels from a scan source into bound rows on the
// worker pool. A row's one frame is a window on the morsel's records: binding
// a row copies nothing and allocates nothing.
func (x *execCtx) bindStage(src *stream, binding string, st *OpStats) *stream {
	sh := &rowShape{bindings: []string{binding}}
	return x.stage(src, x.workers, func(m morsel) (morsel, error) {
		t0 := time.Now()
		rows := make([]Row, len(m.recs))
		for i := range rows {
			rows[i] = Row{sh: sh, recs: m.recs[i : i+1 : i+1]}
		}
		st.tally(len(rows), len(rows), time.Since(t0))
		return morsel{rows: rows}, nil
	})
}

func (x *execCtx) buildRows(n *RowsNode) (*stream, []string, *OpStats, error) {
	st := newOpStats(n)
	sh := &rowShape{cols: n.Cols}
	rows := make([]Row, len(n.Rows))
	for i, vals := range n.Rows {
		rows[i] = Row{sh: sh, vals: vals}
	}
	st.tallyRows(len(rows), len(rows), 0)
	return sliceStream(rows, x.size), n.Cols, st, nil
}

// tableSource streams a table's records from the environment on a producer
// goroutine and records what a pushed-down scan did in st.
func (x *execCtx) tableSource(table string, zone []ZoneConjunct, st *OpStats) *stream {
	size := x.size
	return goSource(x.ctx, &x.wg, func(emit func([]model.Record) bool) error {
		info, found := x.ev.env.ScanTable(table, zone, size, emit)
		if !found {
			return fmt.Errorf("query: unknown table %q", table)
		}
		// Plain writes are safe: ExecuteOpts joins this producer (x.wg)
		// before anyone reads the stats tree.
		st.Pruned = int64(info.Pruned)
		st.IndexName = info.Index
		return nil
	})
}

func (x *execCtx) buildScan(n *ScanNode) (*stream, []string, *OpStats, error) {
	st := newOpStats(n)
	return x.bindStage(x.tableSource(n.Table, nil, st), n.Binding, st), nil, st, nil
}

// buildIndexScan is a fused scan+filter: storage streams candidate rows
// (index lookup and zone-map pruning), and the worker stage binds them and
// re-applies the full predicate, so answers do not depend on how far the
// environment narrowed the scan.
func (x *execCtx) buildIndexScan(n *IndexScanNode) (*stream, []string, *OpStats, error) {
	st := newOpStats(n)
	st.ShowPruned = true
	src := x.tableSource(n.Table, n.Zone, st)
	sh, pred := &rowShape{bindings: []string{n.Binding}}, n.Pred
	s := x.stage(src, x.workers, func(m morsel) (morsel, error) {
		t0 := time.Now()
		out := make([]Row, 0, len(m.recs))
		for i := range m.recs {
			r := Row{sh: sh, recs: m.recs[i : i+1 : i+1]}
			v, err := x.ev.Eval(pred, r)
			if err != nil {
				return morsel{}, err
			}
			t, err := truth3(v)
			if err != nil {
				return morsel{}, err
			}
			if t == model.True {
				out = append(out, r)
			}
		}
		st.tally(len(m.recs), len(out), time.Since(t0))
		return morsel{rows: out}, nil
	})
	return s, nil, st, nil
}

func (x *execCtx) buildConceptScan(n *ConceptScanNode) (*stream, []string, *OpStats, error) {
	st := newOpStats(n)
	concept, semantic, size := n.Concept, n.Semantic || x.ev.semantic, x.size
	src := goSource(x.ctx, &x.wg, func(emit func([]model.Record) bool) error {
		if !x.ev.env.ScanConcept(concept, semantic, size, emit) {
			return fmt.Errorf("query: unknown concept %q", concept)
		}
		return nil
	})
	return x.bindStage(src, n.Binding, st), nil, st, nil
}

func (x *execCtx) buildFilter(n *FilterNode) (*stream, []string, *OpStats, error) {
	in, cols, cst, err := x.build(n.Input)
	if err != nil {
		return nil, nil, nil, err
	}
	st := newOpStats(n)
	st.Children = []*OpStats{cst}
	pred := n.Pred
	s := x.stage(in, x.workers, func(m morsel) (morsel, error) {
		t0 := time.Now()
		var out []Row
		for _, r := range m.rows {
			v, err := x.ev.Eval(pred, r)
			if err != nil {
				return morsel{}, err
			}
			t, err := truth3(v)
			if err != nil {
				return morsel{}, err
			}
			if t == model.True {
				out = append(out, r)
			}
		}
		st.tally(len(m.rows), len(out), time.Since(t0))
		return morsel{rows: out}, nil
	})
	return s, cols, st, nil
}

func (x *execCtx) buildProject(n *ProjectNode) (*stream, []string, *OpStats, error) {
	in, _, cst, err := x.build(n.Input)
	if err != nil {
		return nil, nil, nil, err
	}
	st := newOpStats(n)
	st.Children = []*OpStats{cst}
	if n.Star {
		// SELECT * derives its schema from the full input, so this is a
		// pipeline breaker.
		rows, err := drainRows(x.ctx, in)
		if err != nil {
			return nil, nil, nil, err
		}
		t0 := time.Now()
		cols := unionColumns(rows)
		st.tallyRows(len(rows), len(rows), time.Since(t0))
		return sliceStream(rows, x.size), cols, st, nil
	}
	cols := make([]string, len(n.Items))
	for i, it := range n.Items {
		cols[i] = it.Label()
	}
	sh, items := &rowShape{cols: cols}, n.Items
	s := x.stage(in, x.workers, func(m morsel) (morsel, error) {
		t0 := time.Now()
		out := make([]Row, len(m.rows))
		// The morsel's output cells are one slab, a row's values a window on it.
		slab := make([]model.Value, len(m.rows)*len(items))
		for j, r := range m.rows {
			vals := slab[j*len(items) : (j+1)*len(items) : (j+1)*len(items)]
			for i, it := range items {
				v, err := x.ev.Eval(it.Expr, r)
				if err != nil {
					return morsel{}, err
				}
				vals[i] = v
			}
			out[j] = Row{sh: sh, vals: vals}
		}
		st.tally(len(m.rows), len(out), time.Since(t0))
		return morsel{rows: out}, nil
	})
	return s, cols, st, nil
}

// equiJoinCols recognizes "a.x = b.y" predicates joining the two sides.
func equiJoinCols(on Expr) (l, r *ColRef, ok bool) {
	b, isBin := on.(*Binary)
	if !isBin || b.Op != "=" {
		return nil, nil, false
	}
	lc, lok := b.L.(*ColRef)
	rc, rok := b.R.(*ColRef)
	if !lok || !rok || lc.Binding == "" || rc.Binding == "" {
		return nil, nil, false
	}
	return lc, rc, true
}

func (x *execCtx) buildJoin(n *JoinNode) (*stream, []string, *OpStats, error) {
	ls, _, lst, err := x.build(n.L)
	if err != nil {
		return nil, nil, nil, err
	}
	rs, _, rst, err := x.build(n.R)
	if err != nil {
		ls.stop()
		return nil, nil, nil, err
	}
	st := newOpStats(n)
	st.Children = []*OpStats{lst, rst}
	lrows, err := drainRows(x.ctx, ls)
	if err != nil {
		rs.stop()
		return nil, nil, nil, err
	}
	rrows, err := drainRows(x.ctx, rs)
	if err != nil {
		return nil, nil, nil, err
	}
	if lc, rc, ok := equiJoinCols(n.On); ok {
		return x.buildHashJoin(n, st, lrows, rrows, lc, rc)
	}
	// Nested-loop join with three-valued predicate: stream the left side,
	// each morsel scanning the full right side.
	st.tallyRows(len(lrows)+len(rrows), 0, 0)
	on, sh := n.On, joinShape(lrows, rrows)
	s := x.stage(sliceStream(lrows, x.size), x.workers, func(m morsel) (morsel, error) {
		t0 := time.Now()
		var out []Row
		for _, lr := range m.rows {
			for _, rr := range rrows {
				merged := lr.merge(rr, sh)
				v, err := x.ev.Eval(on, merged)
				if err != nil {
					return morsel{}, err
				}
				t, err := truth3(v)
				if err != nil {
					return morsel{}, err
				}
				if t == model.True {
					out = append(out, merged)
				}
			}
		}
		st.tally(0, len(out), time.Since(t0))
		return morsel{rows: out}, nil
	})
	return s, nil, st, nil
}

// joinShape is the shape of l-then-r merged rows; every row of one side
// shares its shape, and an empty side means no merged row to need one.
func joinShape(l, r []Row) *rowShape {
	if len(l) == 0 || len(r) == 0 {
		return nil
	}
	return l[0].sh.concat(r[0].sh)
}

// buildHashJoin builds the hash table over the smaller side in parallel
// partitions, then probes per-morsel on the worker pool. Partition maps are
// each populated by one worker scanning the build side in index order, so
// bucket ordering — and therefore output ordering — matches the serial
// build exactly.
func (x *execCtx) buildHashJoin(n *JoinNode, st *OpStats, lrows, rrows []Row, lc, rc *ColRef) (*stream, []string, *OpStats, error) {
	t0 := time.Now()
	// Orient columns to sides: a qualified reference fails on the side that
	// does not know its binding.
	probeCol, buildCol := lc, rc
	if len(lrows) > 0 {
		if _, err := lrows[0].Lookup(lc.Binding, lc.Name); err != nil {
			probeCol, buildCol = rc, lc
		}
	}
	// Build on the smaller side.
	build, probe := rrows, lrows
	bCol, pCol := buildCol, probeCol
	if len(lrows) < len(rrows) {
		build, probe = lrows, rrows
		bCol, pCol = probeCol, buildCol
	}
	// Phase 1: hash the build keys in parallel.
	type buildKey struct {
		h  uint64
		ok bool
	}
	bkeys := make([]buildKey, len(build))
	x.parRange(len(build), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v, err := build[i].Lookup(bCol.Binding, bCol.Name)
			if err == nil && !v.IsNull() {
				bkeys[i] = buildKey{v.Hash(), true}
			}
		}
	})
	// Phase 2: one partition map per worker, each scanning all keys and
	// keeping its own residue class.
	nparts := uint64(x.workers)
	parts := make([]map[uint64][]int, nparts)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := map[uint64][]int{}
			for i, k := range bkeys {
				if k.ok && k.h%nparts == uint64(w) {
					m[k.h] = append(m[k.h], i)
				}
			}
			parts[w] = m
		}(w)
	}
	wg.Wait()
	st.tallyRows(len(lrows)+len(rrows), 0, time.Since(t0))

	sh := joinShape(probe, build)
	s := x.stage(sliceStream(probe, x.size), x.workers, func(m morsel) (morsel, error) {
		t0 := time.Now()
		var out []Row
		for _, pr := range m.rows {
			v, err := pr.Lookup(pCol.Binding, pCol.Name)
			if err != nil || v.IsNull() {
				continue
			}
			h := v.Hash()
			for _, bi := range parts[h%nparts][h] {
				br := build[bi]
				bv, _ := br.Lookup(bCol.Binding, bCol.Name)
				if model.Equal(v, bv) {
					out = append(out, pr.merge(br, sh))
				}
			}
		}
		st.tally(0, len(out), time.Since(t0))
		return morsel{rows: out}, nil
	})
	return s, nil, st, nil
}

// parRange splits [0, n) into contiguous chunks across the worker pool.
func (x *execCtx) parRange(n int, fn func(lo, hi int)) {
	w := x.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func (x *execCtx) buildDistinct(n *DistinctNode) (*stream, []string, *OpStats, error) {
	in, cols, cst, err := x.build(n.Input)
	if err != nil {
		return nil, nil, nil, err
	}
	st := newOpStats(n)
	st.Children = []*OpStats{cst}
	// Hash rows in parallel; dedupe serially in morsel order (first
	// occurrence wins, as in the serial executor).
	hashed := x.stage(in, x.workers, func(m morsel) (morsel, error) {
		hs := make([]uint64, len(m.rows))
		for i, r := range m.rows {
			hs[i] = rowHash(r)
		}
		m.hashes = hs
		return m, nil
	})
	d := &deduper{buckets: map[uint64][]Row{}}
	s := x.stage(hashed, 1, func(m morsel) (morsel, error) {
		t0 := time.Now()
		var out []Row
		for i, r := range m.rows {
			if d.keep(r, m.hashes[i]) {
				// A survivor must not pin the morsel slab Project carved it
				// from: a result is retained by the materialization cache.
				r.vals = slices.Clone(r.vals)
				out = append(out, r)
			}
		}
		st.tally(len(m.rows), len(out), time.Since(t0))
		return morsel{rows: out}, nil
	})
	return s, cols, st, nil
}

// deduper keeps first row occurrences, comparing full rows within each
// hash bucket so that hash collisions never merge distinct rows.
type deduper struct {
	buckets map[uint64][]Row
}

func (d *deduper) keep(r Row, h uint64) bool {
	for _, p := range d.buckets[h] {
		if rowsEqual(p, r) {
			return false
		}
	}
	d.buckets[h] = append(d.buckets[h], r)
	return true
}

// rowsEqual reports whether two rows of one shape carry the same cells:
// frame by frame the same attributes, whatever order the records' maps hold
// them in, and slot by slot the same values (model.Equal holds null equal
// to null, as DISTINCT requires).
func rowsEqual(a, b Row) bool {
	if len(a.recs) != len(b.recs) {
		return false
	}
	for i, ra := range a.recs {
		rb := b.recs[i]
		if len(ra) != len(rb) {
			return false
		}
		for k, va := range ra {
			if vb, ok := rb[k]; !ok || !model.Equal(va, vb) {
				return false
			}
		}
	}
	return slices.EqualFunc(a.vals, b.vals, model.Equal)
}

// attachKeys evaluates the sort keys for every row on the worker pool,
// attaching them to the morsel for a downstream Sort or TopK consumer.
func (x *execCtx) attachKeys(in *stream, keys []OrderKey, st *OpStats) *stream {
	return x.stage(in, x.workers, func(m morsel) (morsel, error) {
		t0 := time.Now()
		ks := make([][]model.Value, len(m.rows))
		slab := make([]model.Value, len(m.rows)*len(keys)) // every row's key tuple
		for i, r := range m.rows {
			kv := slab[i*len(keys) : (i+1)*len(keys) : (i+1)*len(keys)]
			for j, k := range keys {
				v, err := x.ev.Eval(k.Expr, r)
				if err != nil {
					return morsel{}, err
				}
				kv[j] = v
			}
			ks[i] = kv
		}
		m.keys = ks
		st.tally(len(m.rows), 0, time.Since(t0))
		return m, nil
	})
}

type keyedRow struct {
	row  Row
	keys []model.Value
	idx  int // original input position, the stable-sort tiebreaker
}

// keyedLess orders by the sort keys, breaking ties by input position — the
// total order equivalent to a stable sort on the keys alone.
func keyedLess(keys []OrderKey, a, b *keyedRow) bool {
	for j, k := range keys {
		va, vb := a.keys[j], b.keys[j]
		if model.Equal(va, vb) {
			continue
		}
		less := model.Less(va, vb)
		if k.Desc {
			return !less
		}
		return less
	}
	return a.idx < b.idx
}

func (x *execCtx) buildSort(n *SortNode) (*stream, []string, *OpStats, error) {
	in, cols, cst, err := x.build(n.Input)
	if err != nil {
		return nil, nil, nil, err
	}
	st := newOpStats(n)
	st.Children = []*OpStats{cst}
	keyed := x.attachKeys(in, n.Keys, st)
	var flat []keyedRow
	for {
		m, ok, err := keyed.next()
		if err != nil {
			return nil, nil, nil, err
		}
		if !ok {
			break
		}
		for i, r := range m.rows {
			flat = append(flat, keyedRow{row: r, keys: m.keys[i], idx: len(flat)})
		}
	}
	t0 := time.Now()
	sort.Slice(flat, func(a, b int) bool { return keyedLess(n.Keys, &flat[a], &flat[b]) })
	rows := make([]Row, len(flat))
	for i := range flat {
		rows[i] = flat[i].row
	}
	st.tallyRows(0, len(rows), time.Since(t0))
	return sliceStream(rows, x.size), cols, st, nil
}

// topK keeps the n first rows of the sort order in a max-heap: the root is
// the last of them, so an input row that does not belong costs one
// comparison against it, and none is boxed through container/heap.
type topK struct {
	items []keyedRow
	keys  []OrderKey
	n     int
}

func (h *topK) offer(kr keyedRow) {
	if len(h.items) < h.n {
		h.items = append(h.items, kr)
		for i := len(h.items) - 1; i > 0; { // sift up
			p := (i - 1) / 2
			if !keyedLess(h.keys, &h.items[p], &h.items[i]) {
				break
			}
			h.items[p], h.items[i] = h.items[i], h.items[p]
			i = p
		}
		return
	}
	if h.n == 0 || !keyedLess(h.keys, &kr, &h.items[0]) {
		return
	}
	h.items[0] = kr
	for i := 0; ; { // sift down
		c := 2*i + 1
		if c+1 < len(h.items) && keyedLess(h.keys, &h.items[c], &h.items[c+1]) {
			c++
		}
		if c >= len(h.items) || !keyedLess(h.keys, &h.items[i], &h.items[c]) {
			return
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
}

func (x *execCtx) buildTopK(n *TopKNode) (*stream, []string, *OpStats, error) {
	in, cols, cst, err := x.build(n.Input)
	if err != nil {
		return nil, nil, nil, err
	}
	st := newOpStats(n)
	st.Children = []*OpStats{cst}
	keyed := x.attachKeys(in, n.Keys, st)
	h := &topK{keys: n.Keys, n: n.N}
	idx := 0
	for {
		m, ok, err := keyed.next()
		if err != nil {
			return nil, nil, nil, err
		}
		if !ok {
			break
		}
		t0 := time.Now()
		for i, r := range m.rows {
			h.offer(keyedRow{row: r, keys: m.keys[i], idx: idx})
			idx++
		}
		st.tallyRows(0, 0, time.Since(t0))
	}
	t0 := time.Now()
	items := h.items
	sort.Slice(items, func(a, b int) bool { return keyedLess(n.Keys, &items[a], &items[b]) })
	rows := make([]Row, len(items))
	for i := range items {
		rows[i] = items[i].row
	}
	st.tallyRows(0, len(rows), time.Since(t0))
	return sliceStream(rows, x.size), cols, st, nil
}

func (x *execCtx) buildLimit(n *LimitNode) (*stream, []string, *OpStats, error) {
	in, cols, cst, err := x.build(n.Input)
	if err != nil {
		return nil, nil, nil, err
	}
	st := newOpStats(n)
	st.Children = []*OpStats{cst}
	taken, stopped := 0, false
	s := &stream{
		next: func() (morsel, bool, error) {
			if taken >= n.N {
				if !stopped {
					stopped = true
					in.stop()
				}
				return morsel{}, false, nil
			}
			m, ok, err := in.next()
			if err != nil || !ok {
				return morsel{}, false, err
			}
			inRows := len(m.rows)
			if taken+len(m.rows) > n.N {
				m.rows = m.rows[:n.N-taken]
			}
			taken += len(m.rows)
			if taken >= n.N && !stopped {
				// Enough rows: cancel the upstream producers right away.
				stopped = true
				in.stop()
			}
			st.tally(inRows, len(m.rows), 0)
			return m, true, nil
		},
		stop: in.stop,
	}
	return s, cols, st, nil
}

// --- aggregation -------------------------------------------------------

// aggState is the mergeable partial state of one aggregate call over one
// group. Errors are deferred, mirroring the serial executor's laziness: an
// argument-eval error always outranks a non-numeric error (the serial code
// evaluated all arguments before type-checking any), and neither surfaces
// unless the group survives HAVING and the call is actually finalized.
type aggState struct {
	count   int64 // non-null values (numeric ones for SUM/AVG)
	fsum    float64
	isum    int64
	allInt  bool
	best    model.Value
	hasBest bool
	evalErr error
	numErr  error
}

func (a *aggState) add(ev *evalCtx, call *Call, r Row) {
	if a.evalErr != nil {
		return
	}
	if call.Star || len(call.Args) != 1 {
		return // finalizeAgg raises the proper error per call shape
	}
	v, err := ev.Eval(call.Args[0], r)
	if err != nil {
		a.evalErr = err
		return
	}
	if v.IsNull() {
		return
	}
	switch call.Name {
	case "COUNT":
		a.count++
	case "SUM", "AVG":
		f, ok := v.AsFloat()
		if !ok {
			if a.numErr == nil {
				a.numErr = fmt.Errorf("query: %s over non-numeric value %s", call.Name, v)
			}
			return
		}
		a.count++
		a.fsum += f
		if i, ok := v.AsInt(); ok {
			a.isum += i
		} else {
			a.allInt = false
		}
	case "MIN", "MAX":
		if !a.hasBest {
			a.best, a.hasBest = v, true
			return
		}
		if (call.Name == "MIN" && model.Less(v, a.best)) ||
			(call.Name == "MAX" && model.Less(a.best, v)) {
			a.best = v
		}
	}
}

// mergeFrom folds a later morsel's partial state into this one. Earlier
// errors win, matching row order.
func (a *aggState) mergeFrom(b *aggState, call *Call) {
	if a.evalErr == nil {
		a.evalErr = b.evalErr
	}
	if a.numErr == nil {
		a.numErr = b.numErr
	}
	a.count += b.count
	a.fsum += b.fsum
	a.isum += b.isum
	a.allInt = a.allInt && b.allInt
	if b.hasBest {
		if !a.hasBest {
			a.best, a.hasBest = b.best, true
		} else if (call.Name == "MIN" && model.Less(b.best, a.best)) ||
			(call.Name == "MAX" && model.Less(a.best, b.best)) {
			a.best = b.best
		}
	}
}

// groupAgg is one group's accumulated state: the hash of its key values,
// its row count, and the representative row (first in row order, used for
// non-aggregate expressions). Its key values and aggregate states live in
// its groupTable's slabs, at the group's index.
type groupAgg struct {
	hash   uint64
	n      int64
	rep    Row
	hasRep bool
}

// groupTable is one morsel's grouping result, and after the merge the whole
// input's: the groups in first-encounter order, one slab of key values
// (nkeys a group) and one of aggregate states (ncalls a group), and an
// open-addressing index over the groups. Groups whose keys hash alike chain
// along one probe sequence and are told apart by model.Equal on their key
// values, so a 64-bit collision never merges two groups.
type groupTable struct {
	hash          func([]model.Value) uint64
	nkeys, ncalls int
	slots         []int32 // group index + 1, 0 when empty; a power of two long
	groups        []groupAgg
	keys          []model.Value
	states        []aggState
}

// newGroupTable makes an empty table with room for groups groups (at least
// 8; the slabs grow by doubling). hash is keysHash everywhere but in a test
// that forces collisions.
func newGroupTable(nkeys, ncalls, groups int, hash func([]model.Value) uint64) *groupTable {
	groups = max(groups, 8)
	slots := 16
	for slots < 2*groups {
		slots *= 2
	}
	return &groupTable{
		hash: hash, nkeys: nkeys, ncalls: ncalls,
		slots:  make([]int32, slots),
		groups: make([]groupAgg, 0, groups),
		keys:   make([]model.Value, 0, groups*nkeys),
		states: make([]aggState, 0, groups*ncalls),
	}
}

// keysHash combines the hashes of a group's key values.
func keysHash(keys []model.Value) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range keys {
		h = h*1099511628211 ^ v.Hash()
	}
	return h
}

func (t *groupTable) keysOf(i int) []model.Value {
	return t.keys[i*t.nkeys : (i+1)*t.nkeys]
}

func (t *groupTable) statesOf(i int) []aggState {
	return t.states[i*t.ncalls : (i+1)*t.ncalls]
}

// find returns the index of the group whose key values equal keys (whose
// hash is h), adding one with fresh states when there is none; added
// reports which. keys is copied, never kept.
func (t *groupTable) find(h uint64, keys []model.Value) (i int, added bool) {
	mask := uint64(len(t.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		g := int(t.slots[s]) - 1
		if g < 0 {
			if 2*(len(t.groups)+1) > len(t.slots) {
				t.grow()
				return t.find(h, keys)
			}
			t.slots[s] = int32(len(t.groups) + 1)
			t.groups = append(t.groups, groupAgg{hash: h})
			t.keys = append(t.keys, keys...)
			for range t.ncalls {
				t.states = append(t.states, aggState{allInt: true})
			}
			return len(t.groups) - 1, true
		}
		if t.groups[g].hash == h && slices.EqualFunc(t.keysOf(g), keys, model.Equal) {
			return g, false
		}
	}
}

// grow doubles the index and re-slots every group.
func (t *groupTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for g := range t.groups {
		s := t.groups[g].hash & mask
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(g + 1)
	}
}

// groupRows folds one morsel's rows into t: each row joins the group of its
// GROUP BY values, its count and the calls' states.
func (x *execCtx) groupRows(t *groupTable, n *AggregateNode, calls []*Call, rows []Row) error {
	keys := make([]model.Value, len(n.GroupBy))
	for _, r := range rows {
		for i, g := range n.GroupBy {
			v, err := x.ev.Eval(g, r)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		i, added := t.find(t.hash(keys), keys)
		ga := &t.groups[i]
		if added {
			ga.rep, ga.hasRep = r, true
		}
		ga.n++
		states := t.statesOf(i)
		for c, call := range calls {
			states[c].add(x.ev, call, r)
		}
	}
	return nil
}

// mergeGroups folds the per-morsel tables into the first in morsel order:
// group order and float accumulation order depend only on morsel
// boundaries, never on the worker count.
func mergeGroups(partials []*groupTable, calls []*Call) *groupTable {
	total := partials[0]
	for _, p := range partials[1:] {
		for g := range p.groups {
			i, added := total.find(p.groups[g].hash, p.keysOf(g))
			if added {
				total.groups[i] = p.groups[g]
				copy(total.statesOf(i), p.statesOf(g))
				continue
			}
			total.groups[i].n += p.groups[g].n
			states, from := total.statesOf(i), p.statesOf(g)
			for c := range states {
				states[c].mergeFrom(&from[c], calls[c])
			}
		}
	}
	return total
}

// collectAggCalls gathers the distinct aggregate calls that finalization
// will need states for, wherever containsAggregate finds them, and maps
// every such Call node of the items and HAVING to its call's state index:
// calls spelled alike share one state, and finalization looks a node up
// without rendering it.
func collectAggCalls(n *AggregateNode) ([]*Call, map[*Call]int) {
	var calls []*Call
	byText := map[string]int{}
	idx := map[*Call]int{}
	collect := func(e Expr) (Expr, error) {
		c, ok := e.(*Call)
		if !ok || !aggFuncs[c.Name] {
			return nil, nil
		}
		text := c.String()
		i, seen := byText[text]
		if !seen {
			i = len(calls)
			byText[text] = i
			calls = append(calls, c)
		}
		idx[c] = i
		return c, nil
	}
	for _, it := range n.Items {
		Rewrite(it.Expr, collect)
	}
	if n.Having != nil {
		Rewrite(n.Having, collect)
	}
	return calls, idx
}

func finalizeAgg(call *Call, g *groupAgg, a *aggState) (model.Value, error) {
	if call.Star {
		if call.Name != "COUNT" {
			return model.Value{}, fmt.Errorf("query: %s(*) is not valid", call.Name)
		}
		return model.Int(g.n), nil
	}
	if len(call.Args) != 1 {
		return model.Value{}, fmt.Errorf("query: %s takes exactly 1 argument", call.Name)
	}
	if a.evalErr != nil {
		return model.Value{}, a.evalErr
	}
	switch call.Name {
	case "COUNT":
		return model.Int(a.count), nil
	case "SUM":
		if a.numErr != nil {
			return model.Value{}, a.numErr
		}
		if a.count == 0 {
			return model.Null(), nil
		}
		if a.allInt {
			return model.Int(a.isum), nil
		}
		return model.Float(a.fsum), nil
	case "AVG":
		if a.numErr != nil {
			return model.Value{}, a.numErr
		}
		if a.count == 0 {
			return model.Null(), nil
		}
		return model.Float(a.fsum / float64(a.count)), nil
	case "MIN", "MAX":
		if !a.hasBest {
			return model.Null(), nil
		}
		return a.best, nil
	}
	return model.Value{}, fmt.Errorf("query: unknown aggregate %s", call.Name)
}

// evalFromStates evaluates a grouped expression from merged partial states:
// aggregate calls finalize their state, aggregate-free subexpressions
// evaluate on the group's representative row, and whatever node sits above
// an aggregate is evaluated over those results.
func (x *execCtx) evalFromStates(e Expr, g *groupAgg, states []aggState, callIdx map[*Call]int) (model.Value, error) {
	if c, ok := e.(*Call); ok && aggFuncs[c.Name] {
		return finalizeAgg(c, g, &states[callIdx[c]])
	}
	if !containsAggregate(e) {
		if !g.hasRep {
			// A global aggregate over no rows has no row to read: columns
			// are null there, and constants are still themselves.
			e, _ = Rewrite(e, func(sub Expr) (Expr, error) {
				if _, ok := sub.(*ColRef); ok {
					return &Literal{Val: model.Null()}, nil
				}
				return nil, nil
			})
		}
		return x.ev.Eval(e, g.rep)
	}
	// Descend e itself only; each operand folds to the literal it evaluates to.
	folded, err := Rewrite(e, func(sub Expr) (Expr, error) {
		if sub == e {
			return nil, nil
		}
		v, err := x.evalFromStates(sub, g, states, callIdx)
		return &Literal{Val: v}, err
	})
	if err != nil {
		return model.Value{}, err
	}
	return x.ev.Eval(folded, Row{})
}

func (x *execCtx) buildAggregate(n *AggregateNode) (*stream, []string, *OpStats, error) {
	in, _, cst, err := x.build(n.Input)
	if err != nil {
		return nil, nil, nil, err
	}
	st := newOpStats(n)
	st.Children = []*OpStats{cst}
	cols := make([]string, len(n.Items))
	for i, it := range n.Items {
		cols[i] = it.Label()
	}
	calls, callIdx := collectAggCalls(n)

	// Phase 1: per-morsel partial grouping on the worker pool. Each table
	// starts with room for as many groups as the last morsel to finish
	// found: the slabs are sized once, not grown group by group.
	var seen atomic.Int64
	partials, err := parMap(in, x.workers, func(m morsel) (*groupTable, error) {
		if err := x.ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		gt := newGroupTable(len(n.GroupBy), len(calls), int(seen.Load()), keysHash)
		if err := x.groupRows(gt, n, calls, m.rows); err != nil {
			return nil, err
		}
		seen.Store(int64(len(gt.groups)))
		st.tally(len(m.rows), 0, time.Since(t0))
		return gt, nil
	})
	if err != nil {
		return nil, nil, nil, err
	}

	// Phase 2: merge partials in morsel order.
	t0 := time.Now()
	if len(partials) == 0 {
		partials = append(partials, newGroupTable(len(n.GroupBy), len(calls), 0, keysHash))
	}
	total := mergeGroups(partials, calls)
	// A global aggregate over zero rows still yields one group.
	if len(total.groups) == 0 && len(n.GroupBy) == 0 {
		total.find(keysHash(nil), nil)
	}

	// Phase 3: HAVING and finalization, serial in group order.
	sh := &rowShape{cols: cols}
	out := make([]Row, 0, len(total.groups))
	slab := make([]model.Value, 0, len(total.groups)*len(n.Items))
	for gi := range total.groups {
		g, states := &total.groups[gi], total.statesOf(gi)
		if n.Having != nil {
			hv, err := x.evalFromStates(n.Having, g, states, callIdx)
			if err != nil {
				return nil, nil, nil, err
			}
			ht, err := truth3(hv)
			if err != nil {
				return nil, nil, nil, err
			}
			if ht != model.True {
				continue
			}
		}
		for _, it := range n.Items {
			v, err := x.evalFromStates(it.Expr, g, states, callIdx)
			if err != nil {
				return nil, nil, nil, err
			}
			slab = append(slab, v)
		}
		out = append(out, Row{sh: sh, vals: slab[len(slab)-len(n.Items) : len(slab) : len(slab)]})
	}
	st.tallyRows(0, len(out), time.Since(t0))
	return sliceStream(out, x.size), cols, st, nil
}

// --- shared helpers ----------------------------------------------------

// rowHash hashes every cell of a row for DISTINCT bucketing: a frame's
// cells in any order (two records with equal cells hash alike whatever order
// their maps hold them in), frames and slots by position.
func rowHash(r Row) uint64 {
	var h uint64
	for _, rec := range r.recs {
		var fh uint64
		for k, v := range rec {
			fh ^= model.String(k).Hash()*31 + v.Hash()
		}
		h = h*1099511628211 ^ fh
	}
	for _, v := range r.vals {
		h = h*1099511628211 ^ v.Hash()
	}
	return h
}

// unionColumns derives display columns from raw rows: "binding.name" when
// several bindings exist, bare names otherwise, sorted.
func unionColumns(rows []Row) []string {
	type cell struct{ binding, name string }
	keys := map[cell]bool{}
	bindings := map[string]bool{}
	var sh *rowShape
	for _, r := range rows {
		if r.sh != sh {
			sh = r.sh
			for _, b := range sh.bindings {
				bindings[b] = true
			}
			for _, c := range sh.cols {
				bindings[""] = true
				keys[cell{"", c}] = true
			}
		}
		for i, rec := range r.recs {
			for k := range rec {
				keys[cell{sh.bindings[i], k}] = true
			}
		}
	}
	multi := len(bindings) > 1
	var cols []string
	for k := range keys {
		if multi && k.binding != "" {
			cols = append(cols, k.binding+"."+k.name)
		} else {
			cols = append(cols, k.name)
		}
	}
	sort.Strings(cols)
	return cols
}
