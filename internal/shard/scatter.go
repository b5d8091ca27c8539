package shard

// Scatter-gather query execution: decompose, gather, canonical sort,
// ordinary executor. The router parses each statement and ships a rewritten
// partial query to the shards it targets (below). What it does with the
// gathered rows is not written here: it is a plan over one in-memory
// relation (query.RowsNode) that query.ExecuteOpts runs, so grouping,
// aggregate arithmetic, HAVING, projection, DISTINCT, ORDER BY and LIMIT
// mean across shards exactly what they mean on one node.
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
// Keyed routing: a statement whose WHERE has a top-level AND conjunct
// [binding.]_key = 'k' (either side of the =) asks ShardOf(k, N) alone,
// and so do its EXPLAIN and TRACE; every other statement asks every shard,
// and EXPLAIN and TRACE ask shard 0. The answer is the one every shard
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

// emitFunc receives a result in batches; returning false stops the query.
type emitFunc = func(cols []string, batch [][]model.Value) bool

// QueryInfoCtx executes one SCQL statement across the cluster.
func (r *Router) QueryInfoCtx(ctx context.Context, q string) (*scdb.Rows, *scdb.QueryInfo, error) {
	rows := &scdb.Rows{}
	cols, info, err := r.QueryBatchesCtx(ctx, q, func(_ []string, batch [][]model.Value) bool {
		rows.Data = scdb.FromRows(rows.Data, batch)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	rows.Columns = cols
	return rows, info, nil
}

// QueryBatchesCtx executes one statement across the cluster and hands the
// result to emit in batches of at most query.DefaultMorselSize rows — the
// streaming shape the wire path encodes one frame per batch from. The
// result is computed in full first (the router must see every shard's rows
// to order them).
func (r *Router) QueryBatchesCtx(ctx context.Context, q string, emit func(cols []string, batch [][]model.Value) bool) ([]string, *scdb.QueryInfo, error) {
	stmt, err := query.Parse(q)
	if err != nil {
		return nil, nil, err
	}
	// A curation statement is told to one engine: a claim names an entity,
	// richness measures a whole corpus, and axioms would need a broadcast
	// every shard applies exactly once.
	if stmt.Curate != nil {
		return nil, nil, fmt.Errorf("%w: %s is told to one engine, not to the cluster", ErrNotRoutable, stmt.Curate.Name())
	}
	// A function reads entity identity or the whole corpus: shards split
	// both. A system relation describes the router itself.
	system := 0
	for _, t := range stmt.Sources() {
		if t.Call {
			return nil, nil, fmt.Errorf("%w: FROM %s() reads entities or the whole corpus, which shards split", ErrNotRoutable, t.Name)
		}
		if obs.IsSystem(t.Name) {
			system++
		}
	}
	if system > 0 {
		switch {
		case system < len(stmt.Sources()):
			return nil, nil, fmt.Errorf("%w: a sys.* relation describes the router, which holds no table to join it to", ErrNotRoutable)
		case stmt.Explain || stmt.Trace:
			return nil, nil, fmt.Errorf("%w: the router explains no statement over its own sys.* relations", ErrNotRoutable)
		}
		cols, err := r.answerSystem(ctx, stmt, emit)
		return cols, &scdb.QueryInfo{}, err
	}
	targets := r.all
	owner, keyed := keyedShard(stmt.Where, len(r.shards))
	if keyed {
		targets = r.all[owner : owner+1]
	}
	// Plan/trace introspection is about the engine, not the data: every
	// shard runs the same engine over the same schema, so the first target
	// — the key's owner, else shard 0 — answers for the cluster, with the
	// rows a keyed statement really reads.
	if stmt.Explain || stmt.Trace {
		res, info, err := r.shards[targets[0]].QueryInfoCtx(ctx, q)
		if err != nil {
			return nil, nil, err
		}
		rows, err := values(nil, res, nil, len(res.Columns))
		if err != nil {
			return nil, nil, err
		}
		return res.Columns, info, emitChunks(res.Columns, rows, emit)
	}
	r.scatterQueries.Add(1)
	if keyed {
		r.keyedQueries.Add(1)
	}
	var cols []string
	if len(stmt.GroupBy) > 0 || slices.ContainsFunc(stmt.Items, func(it query.SelectItem) bool { return query.ContainsAggregate(it.Expr) }) {
		cols, err = r.scatterAgg(ctx, stmt, targets, emit)
	} else {
		cols, err = r.scatterRows(ctx, stmt, targets, emit)
	}
	if err != nil {
		return nil, nil, err
	}
	// A plain statement carries no explanation, as on an engine.
	return cols, &scdb.QueryInfo{}, nil
}

// answerSystem runs a statement over the router's own system relations in
// the ordinary executor, as finalPhase runs gathered rows.
func (r *Router) answerSystem(ctx context.Context, stmt *query.SelectStmt, emit emitFunc) ([]string, error) {
	rels := core.SystemRelations(r.reg, stmt)
	plan, err := query.BuildPlan(stmt, rels)
	if err != nil {
		return nil, err
	}
	res, _, err := query.ExecuteOpts(plan, rels, query.ExecOptions{Ctx: ctx, Parallelism: 1, Semantic: stmt.Semantics, EmitBatch: emit})
	if err != nil {
		return nil, err
	}
	return res.Columns, nil
}

// keyedShard reports the shard that owns every row where can hold: the
// owner of k when a top-level AND conjunct of where is [binding.]_key =
// 'k', with the string literal on either side of the =. Any other
// condition, OR and NOT included, names no shard.
func keyedShard(where query.Expr, shards int) (int, bool) {
	b, ok := where.(*query.Binary)
	if !ok {
		return 0, false
	}
	switch b.Op {
	case "AND":
		if s, ok := keyedShard(b.L, shards); ok {
			return s, true
		}
		return keyedShard(b.R, shards)
	case "=":
		k, ok := keyLiteral(b.L, b.R)
		if !ok {
			k, ok = keyLiteral(b.R, b.L)
		}
		if ok {
			return ShardOf(k, shards), true
		}
	}
	return 0, false
}

// keyLiteral returns k when col is a reference to the _key column and lit
// the string literal k.
func keyLiteral(col, lit query.Expr) (string, bool) {
	c, ok := col.(*query.ColRef)
	if !ok || c.Name != model.KeyAttr {
		return "", false
	}
	l, ok := lit.(*query.Literal)
	if !ok {
		return "", false
	}
	return l.Val.AsString()
}

// fanout runs q on the target shards and returns their results in target
// order: one target on the caller's goroutine, more concurrently.
func (r *Router) fanout(ctx context.Context, q string, targets []int) ([]*scdb.Rows, error) {
	res := make([]*scdb.Rows, len(targets))
	errs := make([]error, len(targets))
	if len(targets) == 1 {
		res[0], _, errs[0] = r.shards[targets[0]].QueryInfoCtx(ctx, q)
	} else {
		var wg sync.WaitGroup
		for i, s := range targets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[i], _, errs[i] = r.shards[s].QueryInfoCtx(ctx, q)
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d (%s): %w", targets[i], r.addrs[targets[i]], err)
		}
	}
	total := 0
	for _, rs := range res {
		total += len(rs.Data)
	}
	r.partialRows.Add(uint64(total))
	return res, nil
}

// values appends one shard's rows to dst as model values of the given
// width, placing the shard's column i at pos[i] (nil: in place). The rows
// share one backing array.
func values(dst [][]model.Value, rs *scdb.Rows, pos []int, width int) ([][]model.Value, error) {
	back := make([]model.Value, len(rs.Data)*width)
	dst = slices.Grow(dst, len(rs.Data))
	for _, row := range rs.Data {
		if len(row) != len(rs.Columns) {
			return nil, fmt.Errorf("shard: partial row has %d values under %d columns", len(row), len(rs.Columns))
		}
		vals := back[:width:width]
		back = back[width:]
		for j, c := range row {
			v, err := scdb.ToValue(c)
			if err != nil {
				return nil, err
			}
			if pos != nil {
				j = pos[j]
			}
			vals[j] = v
		}
		dst = append(dst, vals)
	}
	return dst, nil
}

// gather concatenates the shards' rows under cols, in canonical order: the
// rows' binary value encoding. Projections agree on their columns shard by
// shard; SELECT * schemas are per-shard unions, so star rows are placed by
// column name and read null where a shard never saw the column.
func gather(res []*scdb.Rows, cols []string, star bool) ([][]model.Value, error) {
	var at map[string]int
	if star {
		at = make(map[string]int, len(cols))
		for i, c := range cols {
			at[c] = i
		}
	}
	var rows [][]model.Value
	for _, rs := range res {
		var pos []int
		if star {
			pos = make([]int, len(rs.Columns))
			for i, c := range rs.Columns {
				pos[i] = at[c]
			}
		} else if len(rs.Columns) != len(cols) {
			return nil, fmt.Errorf("shard: partial result has columns %v, want %v", rs.Columns, cols)
		}
		var err error
		if rows, err = values(rows, rs, pos, len(cols)); err != nil {
			return nil, err
		}
	}
	// Every row's canonical key, its cells in the self-delimiting binary
	// value encoding, goes into one buffer; keys[i] is row i's.
	var buf []byte
	ends := make([]int, len(rows))
	for i, vals := range rows {
		for _, v := range vals {
			buf = model.AppendValue(buf, v)
		}
		ends[i] = len(buf)
	}
	keys := make([][]byte, len(rows))
	start := 0
	for i, end := range ends {
		keys[i], start = buf[start:end], end
	}
	sort.Sort(byKey{keys, rows})
	return rows, nil
}

// byKey sorts rows by their aligned canonical keys.
type byKey struct {
	keys [][]byte
	rows [][]model.Value
}

func (b byKey) Len() int           { return len(b.keys) }
func (b byKey) Less(i, j int) bool { return bytes.Compare(b.keys[i], b.keys[j]) < 0 }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.rows[i], b.rows[j] = b.rows[j], b.rows[i]
}

// emitChunks hands rows to emit a morsel at a time.
func emitChunks(cols []string, rows [][]model.Value, emit emitFunc) error {
	for lo := 0; lo < len(rows); lo += query.DefaultMorselSize {
		if !emit(cols, rows[lo:min(lo+query.DefaultMorselSize, len(rows))]) {
			return query.ErrEmitStopped
		}
	}
	return nil
}

// finalPhase runs the statement's DISTINCT, ORDER BY and LIMIT over root in
// the ordinary executor and streams the result.
func finalPhase(ctx context.Context, root query.Node, stmt *query.SelectStmt, emit emitFunc) error {
	if stmt.Distinct {
		root = &query.DistinctNode{Input: root}
	}
	if len(stmt.OrderBy) > 0 {
		root = &query.SortNode{Input: root, Keys: stmt.OrderBy}
	}
	if stmt.Limit >= 0 {
		root = &query.LimitNode{Input: root, N: stmt.Limit}
	}
	_, _, err := query.ExecuteOpts(root, nil, query.ExecOptions{Ctx: ctx, Parallelism: 1, EmitBatch: emit})
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

// scatterRows handles selections without aggregation.
func (r *Router) scatterRows(ctx context.Context, stmt *query.SelectStmt, targets []int, emit emitFunc) ([]string, error) {
	ship, final := *stmt, *stmt
	// An engine sorts a plain selection before it projects, so ORDER BY may
	// read a column the projection drops; the gathered rows carry only the
	// projection. Each such key ships as a hidden trailing column that the
	// final phase sorts by and the emit below strips. DISTINCT leaves no row
	// for a dropped column to be read from. A key with an aggregate is an
	// error on an engine; it stays, for the final phase to report.
	hidden := 0
	for i, k := range stmt.OrderBy {
		if stmt.Star || query.ContainsAggregate(k.Expr) || readsProjection(k.Expr, stmt.Items, stmt.Distinct) {
			continue
		}
		if stmt.Distinct {
			return nil, fmt.Errorf("%w: ORDER BY %s reads a column SELECT DISTINCT drops", ErrNotRoutable, k.Expr)
		}
		if hidden == 0 {
			ship.Items = slices.Clone(stmt.Items)
			final.OrderBy = slices.Clone(stmt.OrderBy)
		}
		hidden++
		ship.Items = append(ship.Items, query.SelectItem{Expr: k.Expr, Alias: orderKeyCol(i)})
		final.OrderBy[i].Expr = &query.ColRef{Name: orderKeyCol(i)}
	}
	if hidden > 0 {
		visible := emit
		emit = func(cols []string, batch [][]model.Value) bool {
			out := make([][]model.Value, len(batch))
			for i, row := range batch {
				out[i] = row[:len(row)-hidden]
			}
			return visible(cols[:len(cols)-hidden], out)
		}
	}
	// Top-K push-down: with both ORDER BY and LIMIT the global top K rows
	// are contained in the union of the shards' local top K, so each shard
	// only returns K rows. Either clause alone is stripped and applied
	// after the gather.
	if stmt.Limit < 0 || len(stmt.OrderBy) == 0 {
		ship.OrderBy = nil
		ship.Limit = -1
	}
	res, err := r.fanout(ctx, ship.String(), targets)
	if err != nil {
		return nil, err
	}

	// Result schema: a projection's labels are identical on every shard;
	// SELECT * schemas are per-shard row unions, so the global schema is
	// the sorted union of the shards' unions — exactly what a single node
	// computes over all rows.
	cols := res[0].Columns
	if stmt.Star {
		set := map[string]bool{}
		for _, rs := range res {
			for _, c := range rs.Columns {
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
		return cols, emitChunks(cols, rows, emit)
	}
	return cols[:len(cols)-hidden], finalPhase(ctx, &query.RowsNode{Cols: cols, Rows: rows}, &final, emit)
}

// scatterAgg handles aggregations with the classic two-phase rewrite: the
// shards compute partials per group, and the final phase is an ordinary
// aggregation over the gathered partial rows.
func (r *Router) scatterAgg(ctx context.Context, stmt *query.SelectStmt, targets []int, emit emitFunc) ([]string, error) {
	if stmt.Star {
		return nil, fmt.Errorf("%w: SELECT * with GROUP BY", ErrNotRoutable)
	}
	if err := query.CheckOrderBy(stmt); err != nil {
		return nil, err
	}
	ship := query.SelectStmt{
		From:           stmt.From,
		Joins:          stmt.Joins,
		Where:          stmt.Where,
		GroupBy:        stmt.GroupBy,
		Limit:          -1,
		Semantics:      stmt.Semantics,
		Mode:           stmt.Mode,
		FuzzyThreshold: stmt.FuzzyThreshold,
	}
	var shipCols []string
	groupCol := map[string]query.Expr{} // group expression text → its g<i> column
	var groupBy []query.Expr
	for i, g := range stmt.GroupBy {
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
			return nil, err
		}
		cols[i] = it.Label()
		agg.Items = append(agg.Items, query.SelectItem{Expr: e, Alias: cols[i]})
	}
	if stmt.Having != nil {
		var err error
		if agg.Having, err = query.Rewrite(stmt.Having, final); err != nil {
			return nil, err
		}
	}

	res, err := r.fanout(ctx, ship.String(), targets)
	if err != nil {
		return nil, err
	}
	rows, err := gather(res, shipCols, false)
	if err != nil {
		return nil, err
	}
	agg.Input = &query.RowsNode{Cols: shipCols, Rows: rows}
	return cols, finalPhase(ctx, agg, stmt, emit)
}
