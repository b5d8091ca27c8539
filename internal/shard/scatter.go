package shard

// Scatter-gather query execution: decompose, gather, canonical sort,
// ordinary executor. The router decomposes each statement shape once
// (below) and ships a partial query to the shards it targets. What it does
// with the gathered rows is not written here: it is a plan over one
// in-memory relation (query.RowsNode) that query.ExecuteOpts runs, so
// grouping, aggregate arithmetic, HAVING, projection, DISTINCT, ORDER BY and
// LIMIT mean across shards exactly what they mean on one node.
//
// Plain selections ship with ORDER BY/LIMIT stripped (or, when both are
// present, pushed down as per-shard top-K); DISTINCT, ORDER BY and LIMIT then
// run over the gathered rows, an ORDER BY key the projection drops riding
// along as a hidden column. Aggregations ship as partials: the group
// expressions as g<i> and one partial per distinct call as a<i>, with AVG
// split into SUM and COUNT. The final phase groups by the g<i> columns and
// replaces each original call by the aggregate in merges over its a<i>
// column — the only aggregate knowledge in this package.
//
// Shapes: the decomposition is keyed by the statement's shape
// (query.AppendShape), the key an engine's plans use, in a query.ShapeCache.
// A miss parses the text with query.ParseShape, so each lifted literal is a
// Param, and a hit binds the text's own values: the shards get the
// caller's text when the shipped statement is the statement itself, else
// the shipped statement rendered with those values, and the final phase
// runs with them as its arguments. The decomposition matches group
// expressions and partial calls by their text, which renders a Param as the
// value it holds; a shape where such a match could hold for some values and
// not for others (a group expression or an aggregate call holding a Param,
// a group expression holding a literal beside a Param in the items or
// HAVING, an unaliased item labelled by a value) is decomposed per call and
// never cached, and neither is a statement that fails.
//
// Keyed routing: a statement whose WHERE has a top-level AND conjunct
// [binding.]_key = 'k' (either side of the =) asks ShardOf(k, N) alone,
// and so do its EXPLAIN and TRACE; every other statement asks every shard,
// and EXPLAIN and TRACE ask shard 0. A lifted 'k' routes by the value the
// text binds to its Param; a number there names no shard, and the shape
// tells a number from a string. The answer is the one every shard
// would give: every row whose _key is k lives on the owning shard, joins
// are shard-local, a SELECT * schema is the union over the matching rows,
// and the other shards' global-aggregate partials over no rows merge to
// the owner's answer. Gather, the canonical sort and the final phase run
// as for a scatter, so a keyed read no longer needs, or fails with, a
// shard that does not own its key.
//
// Determinism: gathered rows are sorted by their binary value encoding
// before they enter the executor, so group first-appearance, DISTINCT's
// survivor and the stable sort's ties depend only on the data, never on
// shard count or arrival order.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"scdb"
	"scdb/client"
	"scdb/internal/core"
	"scdb/internal/model"
	"scdb/internal/obs"
	"scdb/internal/query"
)

// ErrNotRoutable reports a statement that has no cross-shard meaning. The
// wrapping error names the offending expression.
var ErrNotRoutable = errors.New("shard: statement is not routable")

// merges names, for each aggregate, the aggregate that combines its shipped
// partials across shards. AVG ships as SUM and COUNT and merges as the
// quotient of their merged values.
var merges = map[string]string{"COUNT": "SUM", "SUM": "SUM", "MIN": "MIN", "MAX": "MAX", "AVG": "/"}

// QueryInfoCtx executes one SCQL statement across the cluster.
func (r *Router) QueryInfoCtx(ctx context.Context, q string) (*scdb.Rows, *scdb.QueryInfo, error) {
	rows := &publicRows{}
	cols, info, err := r.QueryBatchesCtx(ctx, q, rows)
	if err != nil {
		return nil, nil, err
	}
	rows.Columns = cols
	return &rows.Rows, &info, nil
}

// publicRows boxes each batch it is handed onto its rows.
type publicRows struct{ scdb.Rows }

func (p *publicRows) EmitBatch(_ []string, batch [][]model.Value) bool {
	p.Data = scdb.FromRows(p.Data, batch)
	return true
}

// route is a statement shape's decomposition: everything the router
// derives from a text before it asks a shard. It is immutable and holds for
// every text of the shape, each with its lifted literals bound (args).
type route struct {
	stmt  *query.SelectStmt // ParseShape's: a Param for each lifted literal
	class routeClass
	// key is the string Literal or Param k of the first top-level conjunct
	// _key = k; nil when the statement asks every shard.
	key query.Expr
	// ship is the statement the shards run, nil when it is the statement
	// itself and the caller's text ships; shipCols are its columns (agg).
	ship     *query.SelectStmt
	shipCols []string
	// final holds the final phase's DISTINCT, ORDER BY and LIMIT; hidden
	// counts the trailing ORDER BY key columns it sorts by and the answer
	// drops (rows).
	final  *query.SelectStmt
	hidden int
	// agg is the final phase's aggregation, without its input; cols are its
	// labels (agg).
	agg  *query.AggregateNode
	cols []string
}

type routeClass uint8

const (
	routeRows    routeClass = iota // a plain selection
	routeAgg                       // an aggregation: partials, then merges
	routeSystem                    // a read of the router's own sys.* relations
	routeExplain                   // EXPLAIN or TRACE: the first target answers
)

// QueryBatchesCtx executes one statement across the cluster and hands the
// result to sink in batches of at most query.DefaultMorselSize rows — the
// streaming shape the wire path encodes one frame per batch from. The
// result is computed in full first (the router must see every shard's rows
// to order them). Only a final phase copies the lifted literals' values.
func (r *Router) QueryBatchesCtx(ctx context.Context, q string, sink query.BatchSink) ([]string, scdb.QueryInfo, error) {
	var keyBuf [256]byte
	var argBuf [8]model.Value
	k, args, err := query.AppendShape(keyBuf[:0], argBuf[:0], q)
	if err != nil {
		return nil, scdb.QueryInfo{}, err
	}
	rt, cached := r.routes.Get(k)
	cacheable := false
	if !cached {
		if rt, cacheable, err = decompose(q); err != nil {
			return nil, scdb.QueryInfo{}, err
		}
	}
	cols, info, err := r.run(ctx, rt, q, args, sink)
	if err != nil {
		return nil, scdb.QueryInfo{}, err
	}
	if cacheable {
		r.routes.Put(string(k), rt)
	}
	return cols, info, nil
}

// run answers one text of rt's shape, args its lifted literals' values. A
// plain statement carries no explanation, as on an engine.
func (r *Router) run(ctx context.Context, rt *route, q string, args []model.Value, sink query.BatchSink) ([]string, scdb.QueryInfo, error) {
	if rt.class == routeSystem {
		cols, err := r.answerSystem(ctx, rt.stmt, args, sink)
		return cols, scdb.QueryInfo{}, err
	}
	targets := r.all
	if k, ok := operand(rt.key, args); ok {
		key, _ := k.AsString()
		s := ShardOf(key, len(r.shards))
		targets = r.all[s : s+1]
	}
	if rt.class == routeExplain {
		// Plan/trace introspection is about the engine, not the data: every
		// shard runs the same engine over the same schema, so the first
		// target — the key's owner, else shard 0 — answers for the cluster,
		// with the rows a keyed statement really reads.
		var a answer
		if r.ask(ctx, q, targets[0], &a, nil); a.err != nil {
			return nil, scdb.QueryInfo{}, a.err
		}
		return a.Columns, a.Info, query.EmitChunks(a.Columns, a.Rows, 0, sink)
	}
	r.scatterQueries.Add(1)
	if rt.key != nil {
		r.keyedQueries.Add(1)
	}
	ship := q
	if rt.ship != nil {
		ship = rt.ship.StringWith(args)
	}
	res, err := r.fanout(ctx, ship, targets)
	if err != nil {
		return nil, scdb.QueryInfo{}, err
	}
	var cols []string
	if rt.class == routeAgg {
		cols, err = rt.gatherAgg(ctx, res, args, sink)
	} else {
		cols, err = rt.gatherRows(ctx, res, args, sink)
	}
	return cols, scdb.QueryInfo{}, err
}

// decompose parses q and derives its shape's route. cacheable reports
// whether the route holds for every text of the shape.
func decompose(q string) (rt *route, cacheable bool, err error) {
	stmt, err := query.ParseShape(q)
	if err != nil {
		return nil, false, err
	}
	// A curation statement is told to one engine: a claim names an entity,
	// richness measures a whole corpus, and axioms would need a broadcast
	// every shard applies exactly once.
	if stmt.Curate != nil {
		return nil, false, fmt.Errorf("%w: %s is told to one engine, not to the cluster", ErrNotRoutable, stmt.Curate.Name())
	}
	// A function reads entity identity or the whole corpus: shards split
	// both. A system relation describes the router itself.
	system := 0
	for _, t := range stmt.Sources() {
		if t.Call {
			return nil, false, fmt.Errorf("%w: FROM %s() reads entities or the whole corpus, which shards split", ErrNotRoutable, t.Name)
		}
		if obs.IsSystem(t.Name) {
			system++
		}
	}
	rt = &route{stmt: stmt, final: stmt}
	switch {
	case system > 0 && system < len(stmt.Sources()):
		return nil, false, fmt.Errorf("%w: a sys.* relation describes the router, which holds no table to join it to", ErrNotRoutable)
	case system > 0 && (stmt.Explain || stmt.Trace):
		return nil, false, fmt.Errorf("%w: the router explains no statement over its own sys.* relations", ErrNotRoutable)
	case system > 0:
		rt.class = routeSystem
		return rt, true, nil
	}
	rt.key = keyOperand(stmt.Where)
	switch {
	case stmt.Explain || stmt.Trace:
		rt.class = routeExplain
		return rt, true, nil
	case len(stmt.GroupBy) > 0 || slices.ContainsFunc(stmt.Items, func(it query.SelectItem) bool { return query.ContainsAggregate(it.Expr) }):
		rt.class = routeAgg
		cacheable, err = rt.decomposeAgg()
		return rt, cacheable, err
	}
	rt.class = routeRows
	return rt, true, rt.decomposeRows()
}

// answerSystem runs a statement over the router's own system relations in
// the ordinary executor, as the final phase runs gathered rows.
func (r *Router) answerSystem(ctx context.Context, stmt *query.SelectStmt, args []model.Value, sink query.BatchSink) ([]string, error) {
	rels := core.SystemRelations(r.reg, stmt)
	plan, err := query.BuildPlan(stmt, rels)
	if err != nil {
		return nil, err
	}
	res, _, err := query.ExecuteOpts(plan, rels, query.ExecOptions{Ctx: ctx, Parallelism: 1, Semantic: stmt.Semantics, Sink: sink, Args: slices.Clone(args)})
	if err != nil {
		return nil, err
	}
	return res.Columns, nil
}

// keyOperand returns the string Literal or Param k of the first top-level
// AND conjunct of where that is [binding.]_key = k, with k on either side of
// the =: every row where can hold lives on k's owner. Any other condition,
// OR and NOT included, names no shard. A Param's kind is part of the shape,
// so every text of the shape binds a string to it.
func keyOperand(where query.Expr) query.Expr {
	b, ok := where.(*query.Binary)
	if !ok {
		return nil
	}
	switch b.Op {
	case "AND":
		if k := keyOperand(b.L); k != nil {
			return k
		}
		return keyOperand(b.R)
	case "=":
		if k := keyString(b.L, b.R); k != nil {
			return k
		}
		return keyString(b.R, b.L)
	}
	return nil
}

// keyString returns k when col is a reference to the _key column and k a
// string Literal or Param.
func keyString(col, k query.Expr) query.Expr {
	if c, ok := col.(*query.ColRef); !ok || c.Name != model.KeyAttr {
		return nil
	}
	if v, ok := operand(k, nil); ok {
		if _, ok := v.AsString(); ok {
			return k
		}
	}
	return nil
}

// operand returns the value of a Literal or Param: a Param's is args[Index],
// or the literal it was parsed from when args is nil.
func operand(e query.Expr, args []model.Value) (model.Value, bool) {
	switch x := e.(type) {
	case *query.Literal:
		return x.Val, true
	case *query.Param:
		if args == nil {
			return x.Val, true
		}
		return args[x.Index], true
	}
	return model.Value{}, false
}

// answer is one target shard's answer to a fanned-out statement.
type answer struct {
	client.Values
	err error
}

// fanout runs q on the target shards and returns their answers in target
// order: the first on the caller's goroutine, the others concurrently.
func (r *Router) fanout(ctx context.Context, q string, targets []int) ([]answer, error) {
	res := make([]answer, len(targets))
	var wg *sync.WaitGroup
	if len(targets) > 1 {
		wg = new(sync.WaitGroup)
		wg.Add(len(targets) - 1)
		for i := 1; i < len(targets); i++ {
			go r.ask(ctx, q, targets[i], &res[i], wg)
		}
	}
	r.ask(ctx, q, targets[0], &res[0], nil)
	if wg != nil {
		wg.Wait()
	}
	total := 0
	for i := range res {
		if err := res[i].err; err != nil {
			return nil, fmt.Errorf("shard %d (%s): %w", targets[i], r.addrs[targets[i]], err)
		}
		total += len(res[i].Rows)
	}
	r.partialRows.Add(uint64(total))
	return res, nil
}

// ask runs q on shard s into a, then marks wg done when it is not nil. A
// row whose width is not the answer's column count fails the answer.
func (r *Router) ask(ctx context.Context, q string, s int, a *answer, wg *sync.WaitGroup) {
	if wg != nil {
		defer wg.Done()
	}
	if a.Values, a.err = r.shards[s].QueryValuesCtx(ctx, q); a.err != nil {
		return
	}
	for _, row := range a.Rows {
		if len(row) != len(a.Columns) {
			a.err = fmt.Errorf("shard: partial row has %d values under %d columns", len(row), len(a.Columns))
			return
		}
	}
}

// gather concatenates the shards' rows under cols, in canonical order: the
// rows' binary value encoding. Projections agree on their columns shard by
// shard; SELECT * schemas are per-shard unions, so a star answer under
// other columns is placed by column name and reads null where its shard
// never saw the column. The answers' rows become the result's rows.
func gather(res []answer, cols []string, star bool) ([][]model.Value, error) {
	n := 0
	for i := range res {
		a := &res[i]
		if star && !slices.Equal(a.Columns, cols) {
			a.Rows = placed(a.Rows, a.Columns, cols)
		} else if len(a.Columns) != len(cols) {
			return nil, fmt.Errorf("shard: partial result has columns %v, want %v", a.Columns, cols)
		}
		n += len(a.Rows)
	}
	rows := res[0].Rows
	if len(res) > 1 {
		rows = make([][]model.Value, 0, n)
		for i := range res {
			rows = append(rows, res[i].Rows...)
		}
	}
	if len(rows) > 1 { // one row is in canonical order
		sortCanonical(rows)
	}
	return rows, nil
}

// placed copies rows under from into rows under to, each cell under its
// column's name; a column of to that from lacks reads null.
func placed(rows [][]model.Value, from, to []string) [][]model.Value {
	pos := make([]int, len(from))
	for i, c := range from {
		pos[i] = slices.Index(to, c)
	}
	w := len(to)
	back := make([]model.Value, len(rows)*w)
	out := make([][]model.Value, len(rows))
	for i, row := range rows {
		out[i] = back[i*w : (i+1)*w : (i+1)*w]
		for j, v := range row {
			out[i][pos[j]] = v
		}
	}
	return out
}

// sortScratch is one gather's sort state: every row's canonical key, its
// cells in the self-delimiting binary value encoding, in one buffer, and
// the (key, row) pairs sorted by it. A router keeps a few in a pool.
type sortScratch struct {
	keys  []byte
	pairs []keyedRow
}

// keyedRow is a row and its key, keys[lo:hi] of its scratch.
type keyedRow struct {
	lo, hi int
	row    []model.Value
}

var sortScratches = sync.Pool{New: func() any { return new(sortScratch) }}

// sortCanonical sorts rows by their canonical keys.
func sortCanonical(rows [][]model.Value) {
	sc := sortScratches.Get().(*sortScratch)
	keys, pairs := sc.keys[:0], sc.pairs[:0]
	for _, row := range rows {
		lo := len(keys)
		for _, v := range row {
			keys = model.AppendValue(keys, v)
		}
		pairs = append(pairs, keyedRow{lo, len(keys), row})
	}
	slices.SortFunc(pairs, func(a, b keyedRow) int { return bytes.Compare(keys[a.lo:a.hi], keys[b.lo:b.hi]) })
	for i := range pairs {
		rows[i] = pairs[i].row
	}
	clear(pairs)
	sc.keys, sc.pairs = keys[:0], pairs[:0]
	if cap(keys) > sortKeptBytes || cap(pairs) > sortKeptRows {
		sc.keys, sc.pairs = nil, nil
	}
	sortScratches.Put(sc)
}

// sortKeptBytes and sortKeptRows bound the buffers a pooled scratch keeps,
// so one wide gather does not pin its size on the router.
const (
	sortKeptBytes = 64 << 10
	sortKeptRows  = 2 << 10
)

// finalPhase runs the statement's DISTINCT, ORDER BY and LIMIT over root in
// the ordinary executor, its Params bound to a copy of args (the executor
// keeps them), and streams the result.
func finalPhase(ctx context.Context, root query.Node, stmt *query.SelectStmt, args []model.Value, sink query.BatchSink) error {
	if stmt.Distinct {
		root = &query.DistinctNode{Input: root}
	}
	if len(stmt.OrderBy) > 0 {
		root = &query.SortNode{Input: root, Keys: stmt.OrderBy}
	}
	if stmt.Limit >= 0 {
		root = &query.LimitNode{Input: root, N: stmt.Limit}
	}
	_, _, err := query.ExecuteOpts(root, nil, query.ExecOptions{Ctx: ctx, Parallelism: 1, Sink: sink, Args: slices.Clone(args)})
	return err
}

// orderKeyCol names the hidden column that carries ORDER BY key i. No plain
// identifier contains a space, so it collides with no column a statement
// names without quoting it.
func orderKeyCol(i int) string { return fmt.Sprintf("order key %d", i) }

// readsProjection reports whether every column e reads can be read off the
// gathered rows: it is a select item under its own name — or, when byAlias,
// under its alias (DISTINCT sorts its output, where aliases exist; a plain
// selection sorts its source rows, where they do not).
func readsProjection(e query.Expr, items []query.SelectItem, byAlias bool) bool {
	ok := true
	query.Rewrite(e, func(e query.Expr) (query.Expr, error) {
		c, isCol := e.(*query.ColRef)
		if !isCol {
			return nil, nil
		}
		found := false
		for _, it := range items {
			if it.Alias != "" {
				found = found || (byAlias && c.Binding == "" && c.Name == it.Alias)
			} else if ic, isCol := it.Expr.(*query.ColRef); isCol {
				found = found || (ic.Name == c.Name && (c.Binding == "" || c.Binding == ic.Binding))
			}
		}
		ok = ok && found
		return e, nil
	})
	return ok
}

// decomposeRows decomposes a selection without aggregation.
func (rt *route) decomposeRows() error {
	stmt := rt.stmt
	ship, final := *stmt, *stmt
	// An engine sorts a plain selection before it projects, so ORDER BY may
	// read a column the projection drops; the gathered rows carry only the
	// projection. Each such key ships as a hidden trailing column that the
	// final phase sorts by and gatherRows strips. DISTINCT leaves no row
	// for a dropped column to be read from. A key with an aggregate is an
	// error on an engine; it stays, for the final phase to report.
	for i, k := range stmt.OrderBy {
		if stmt.Star || query.ContainsAggregate(k.Expr) || readsProjection(k.Expr, stmt.Items, stmt.Distinct) {
			continue
		}
		if stmt.Distinct {
			return fmt.Errorf("%w: ORDER BY %s reads a column SELECT DISTINCT drops", ErrNotRoutable, k.Expr)
		}
		if rt.hidden == 0 {
			ship.Items = slices.Clone(stmt.Items)
			final.OrderBy = slices.Clone(stmt.OrderBy)
		}
		rt.hidden++
		ship.Items = append(ship.Items, query.SelectItem{Expr: k.Expr, Alias: orderKeyCol(i)})
		final.OrderBy[i].Expr = &query.ColRef{Name: orderKeyCol(i)}
	}
	// Top-K push-down: with both ORDER BY and LIMIT the global top K rows
	// are contained in the union of the shards' local top K, so each shard
	// only returns K rows. Either clause alone is stripped and applied
	// after the gather.
	strip := (stmt.Limit < 0) != (len(stmt.OrderBy) == 0)
	if strip {
		ship.OrderBy = nil
		ship.Limit = -1
	}
	if strip || rt.hidden > 0 {
		rt.ship = &ship
	}
	if rt.hidden > 0 {
		rt.final = &final
	}
	return nil
}

// gatherRows answers a selection without aggregation from the shards' rows.
func (rt *route) gatherRows(ctx context.Context, res []answer, args []model.Value, sink query.BatchSink) ([]string, error) {
	stmt := rt.stmt
	if rt.hidden > 0 {
		sink = &visibleSink{sink, rt.hidden}
	}
	// Result schema: a projection's labels are identical on every shard;
	// SELECT * schemas are per-shard row unions, so the global schema is
	// the sorted union of the shards' unions — exactly what a single node
	// computes over all rows.
	cols := res[0].Columns
	if stmt.Star {
		set := map[string]bool{}
		for _, a := range res {
			for _, c := range a.Columns {
				set[c] = true
			}
		}
		cols = make([]string, 0, len(set))
		for c := range set {
			cols = append(cols, c)
		}
		sort.Strings(cols)
	}
	rows, err := gather(res, cols, stmt.Star)
	if err != nil {
		return nil, err
	}
	// With none of the three clauses there is nothing to evaluate: a plan
	// over the rows would be a bare RowsNode, which hands them on as they are.
	if !stmt.Distinct && len(stmt.OrderBy) == 0 && stmt.Limit < 0 {
		return cols, query.EmitChunks(cols, rows, 0, sink)
	}
	return cols[:len(cols)-rt.hidden], finalPhase(ctx, &query.RowsNode{Cols: cols, Rows: rows}, rt.final, args, sink)
}

// visibleSink hands batches on without their trailing hidden ORDER BY key
// columns.
type visibleSink struct {
	to     query.BatchSink
	hidden int
}

func (s *visibleSink) EmitBatch(cols []string, batch [][]model.Value) bool {
	out := make([][]model.Value, len(batch))
	for i, row := range batch {
		out[i] = row[:len(row)-s.hidden]
	}
	return s.to.EmitBatch(cols[:len(cols)-s.hidden], out)
}

// decomposeAgg decomposes an aggregation with the classic two-phase
// rewrite: the shards compute partials per group, and the final phase is an
// ordinary aggregation over the gathered partial rows. cacheable reports
// whether every text match it made holds for every text of the shape.
func (rt *route) decomposeAgg() (cacheable bool, err error) {
	stmt := rt.stmt
	if stmt.Star {
		return false, fmt.Errorf("%w: SELECT * with GROUP BY", ErrNotRoutable)
	}
	if err := query.CheckOrderBy(stmt); err != nil {
		return false, err
	}
	ship := &query.SelectStmt{
		From:           stmt.From,
		Joins:          stmt.Joins,
		Where:          stmt.Where,
		GroupBy:        stmt.GroupBy,
		Limit:          -1,
		Semantics:      stmt.Semantics,
		Mode:           stmt.Mode,
		FuzzyThreshold: stmt.FuzzyThreshold,
	}
	// Matches are by text, and a Param renders as the value it holds. A
	// group expression holding a Param, or a literal while an item or
	// HAVING holds a Param, may match for some values only; so may an
	// aggregate call holding a Param, and an unaliased item holding one is
	// labelled by its value.
	params := slices.ContainsFunc(stmt.Items, func(it query.SelectItem) bool { return holds[*query.Param](it.Expr) }) ||
		holds[*query.Param](stmt.Having)
	cacheable = true
	for _, it := range stmt.Items {
		if it.Alias == "" && holds[*query.Param](it.Expr) {
			cacheable = false
		}
	}
	var shipCols []string
	groupCol := map[string]query.Expr{} // group expression text → its g<i> column
	var groupBy []query.Expr
	for i, g := range stmt.GroupBy {
		if holds[*query.Param](g) || params && holds[*query.Literal](g) {
			cacheable = false
		}
		col := &query.ColRef{Name: fmt.Sprintf("g%d", i)}
		ship.Items = append(ship.Items, query.SelectItem{Expr: g, Alias: col.Name})
		shipCols = append(shipCols, col.Name)
		groupCol[g.String()] = col
		groupBy = append(groupBy, col)
	}
	// partial ships c once (AVG(x) and SUM(x) share one SUM(x)) and returns
	// the column its partial arrives in.
	partCol := map[string]query.Expr{}
	partial := func(c *query.Call) query.Expr {
		if holds[*query.Param](c) {
			cacheable = false
		}
		col, ok := partCol[c.String()]
		if !ok {
			name := fmt.Sprintf("a%d", len(partCol))
			col = &query.ColRef{Name: name}
			partCol[c.String()] = col
			ship.Items = append(ship.Items, query.SelectItem{Expr: c, Alias: name})
			shipCols = append(shipCols, name)
		}
		return col
	}
	merged := func(fn string, c *query.Call) query.Expr {
		return &query.Call{Name: fn, Args: []query.Expr{partial(c)}}
	}
	// final rewrites one expression of the statement over the gathered
	// relation: group expressions become their g<i> column, aggregate calls
	// their merge expression, and scalar operators stay.
	final := func(e query.Expr) (query.Expr, error) {
		if col, ok := groupCol[e.String()]; ok {
			return col, nil
		}
		switch x := e.(type) {
		case *query.Call:
			switch fn := merges[x.Name]; fn {
			case "":
			case "/":
				return &query.Binary{Op: "/",
					L: merged("SUM", &query.Call{Name: "SUM", Args: x.Args}),
					R: merged("SUM", &query.Call{Name: "COUNT", Args: x.Args}),
				}, nil
			default:
				return merged(fn, x), nil
			}
		case *query.ColRef:
			// The executor reads such a column off the group's first row,
			// which does not exist across shards.
			return nil, fmt.Errorf("%w: %s is neither grouped nor aggregated", ErrNotRoutable, x)
		}
		return nil, nil
	}
	agg := &query.AggregateNode{GroupBy: groupBy}
	cols := make([]string, len(stmt.Items))
	for i, it := range stmt.Items {
		e, err := query.Rewrite(it.Expr, final)
		if err != nil {
			return false, err
		}
		cols[i] = it.Label()
		agg.Items = append(agg.Items, query.SelectItem{Expr: e, Alias: cols[i]})
	}
	if stmt.Having != nil {
		if agg.Having, err = query.Rewrite(stmt.Having, final); err != nil {
			return false, err
		}
	}
	rt.ship, rt.shipCols, rt.agg, rt.cols = ship, shipCols, agg, cols
	return cacheable, nil
}

// gatherAgg merges the shards' partial rows in the final phase.
func (rt *route) gatherAgg(ctx context.Context, res []answer, args []model.Value, sink query.BatchSink) ([]string, error) {
	rows, err := gather(res, rt.shipCols, false)
	if err != nil {
		return nil, err
	}
	agg := *rt.agg
	agg.Input = &query.RowsNode{Cols: rt.shipCols, Rows: rows}
	return rt.cols, finalPhase(ctx, &agg, rt.stmt, args, sink)
}

// holds reports whether e or any expression under it is a T.
func holds[T query.Expr](e query.Expr) bool {
	found := false
	query.Rewrite(e, func(e query.Expr) (query.Expr, error) {
		_, ok := e.(T)
		found = found || ok
		return nil, nil
	})
	return found
}
