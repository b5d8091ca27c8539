// Package optimizer rewrites SCQL plans using both classical rules
// (constant folding, predicate pushdown, join-input ordering) and the
// semantic rewrites of the paper's OS.3: "exploit the available semantics
// (e.g., exploiting class and subclass relationships) by inferring the
// selectivity and rewriting the query to a more efficient query (e.g., by
// inferring that certain predicates can be collapsed together semantically
// or can be dropped because they are redundant or unsatisfiable)".
//
// Concretely:
//   - ISA(x, A) ∧ ISA(x, B) with A ⊑ B collapses to ISA(x, A) (redundant
//     superclass check dropped).
//   - ISA(x, A) ∧ ISA(x, B) with A, B disjoint proves the query empty: the
//     whole subtree is replaced by an EmptyNode — no data is touched.
//   - A ConceptScan filtered by a subclass ISA is tightened to scan the
//     subclass extent directly.
//   - Cardinalities are estimated from ontology instance statistics when
//     table statistics are absent — "optimizers are no longer limited to
//     only statistics on data".
package optimizer

import (
	"fmt"

	"scdb/internal/model"
	"scdb/internal/query"
)

// Semantics is what the optimizer needs from the ontology.
type Semantics interface {
	Subsumes(d, c string) bool
	AreDisjoint(c, d string) bool
	Satisfiable(c string) bool
	InstanceCount(c string) (int, bool)
}

// Stats supplies instance-layer cardinalities.
type Stats interface {
	TableCard(name string) int
	TotalEntities() int
}

// Options controls which rewrites run; the zero value enables everything
// except that nil Semantics/Stats disable the rules needing them.
type Options struct {
	// DisableSemantic turns the OS.3 rewrites off (the ablation baseline).
	DisableSemantic bool
	// DisableClassic turns folding/pushdown/ordering off.
	DisableClassic bool
	// DisableAccessPaths keeps Filter-over-Scan as-is instead of fusing
	// into IndexScan (differential baseline: no index use, no zone-map
	// pruning, since only IndexScan reaches storage.ScanWhere).
	DisableAccessPaths bool
	// Explain records each rewrite applied in Report.Rules (EXPLAIN, TRACE).
	// Without it Rules stays empty and no rewrite renders an expression.
	Explain   bool
	Semantics Semantics
	Stats     Stats
}

// Report records the rewrites applied, for EXPLAIN output and the
// experiment harness.
type Report struct {
	// Rules is the rewrite log, filled only under Options.Explain.
	Rules []string
	// EstimatedCost is the cost estimate of the final plan (arbitrary
	// units: rows touched, plus a dispatch charge per morsel scheduled on
	// the parallel executor).
	EstimatedCost float64
	// EstimatedMorsels is how many morsels the parallel executor is
	// expected to schedule for this plan.
	EstimatedMorsels int

	explain bool
}

// log appends one rewrite to the log. Call sites test rep.explain first, so
// a statement nobody explains never boxes the arguments.
func (r *Report) log(format string, args ...any) {
	r.Rules = append(r.Rules, fmt.Sprintf(format, args...))
}

// Optimize rewrites the plan and returns it with a report.
func Optimize(n query.Node, opts Options) (query.Node, *Report) {
	rep := &Report{explain: opts.Explain}
	if !opts.DisableClassic {
		n = rewriteExprs(n, func(e query.Expr) query.Expr { return foldConstants(e, rep) })
	}
	if !opts.DisableSemantic && opts.Semantics != nil {
		n = semanticRewrite(n, opts.Semantics, rep)
	}
	if !opts.DisableClassic {
		n = pushDownFilters(n, rep)
		if !opts.DisableAccessPaths {
			n = pushScanPredicates(n, rep)
		}
		n = orderJoins(n, opts, rep)
		n = pushTopK(n, rep)
	}
	rep.EstimatedCost = EstimateCost(n, opts)
	rep.EstimatedMorsels = EstimateMorsels(n, opts)
	return n, rep
}

// pushTopK fuses Limit-over-Sort into a TopK node: a bounded heap replaces
// the full sort, so only K rows are ever kept resident.
func pushTopK(n query.Node, rep *Report) query.Node {
	switch n := n.(type) {
	case *query.LimitNode:
		input := pushTopK(n.Input, rep)
		if s, ok := input.(*query.SortNode); ok {
			if rep.explain {
				rep.log("topk: fuse Limit %d over Sort into TopK", n.N)
			}
			return &query.TopKNode{Input: s.Input, Keys: s.Keys, N: n.N}
		}
		return &query.LimitNode{Input: input, N: n.N}
	case *query.FilterNode:
		return &query.FilterNode{Input: pushTopK(n.Input, rep), Pred: n.Pred}
	case *query.JoinNode:
		return &query.JoinNode{L: pushTopK(n.L, rep), R: pushTopK(n.R, rep), On: n.On}
	case *query.ProjectNode:
		return &query.ProjectNode{Input: pushTopK(n.Input, rep), Star: n.Star, Items: n.Items}
	case *query.AggregateNode:
		return &query.AggregateNode{Input: pushTopK(n.Input, rep), GroupBy: n.GroupBy, Items: n.Items, Having: n.Having}
	case *query.DistinctNode:
		return &query.DistinctNode{Input: pushTopK(n.Input, rep)}
	case *query.SortNode:
		return &query.SortNode{Input: pushTopK(n.Input, rep), Keys: n.Keys}
	}
	return n
}

// --- constant folding -------------------------------------------------

// foldConstants evaluates literal-only subexpressions and simplifies
// boolean identities.
func foldConstants(e query.Expr, rep *Report) query.Expr {
	switch e := e.(type) {
	case *query.Binary:
		l := foldConstants(e.L, rep)
		r := foldConstants(e.R, rep)
		nb := &query.Binary{Op: e.Op, L: l, R: r}
		// Boolean identities.
		if e.Op == "AND" || e.Op == "OR" {
			if lv, ok := literalBool(l); ok {
				return foldBool(e.Op, lv, r, rep)
			}
			if rv, ok := literalBool(r); ok {
				return foldBool(e.Op, rv, l, rep)
			}
			return nb
		}
		return foldLiteral(nb, rep, l, r)
	case *query.Unary:
		x := foldConstants(e.X, rep)
		return foldLiteral(&query.Unary{Op: e.Op, X: x}, rep, x)
	case *query.Call:
		args := make([]query.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = foldConstants(a, rep)
		}
		return &query.Call{Name: e.Name, Args: args, Star: e.Star}
	case *query.IsNull:
		return &query.IsNull{X: foldConstants(e.X, rep), Negate: e.Negate}
	case *query.InList:
		return &query.InList{X: foldConstants(e.X, rep), Vals: e.Vals}
	case *query.Like:
		return &query.Like{X: foldConstants(e.X, rep), Pattern: e.Pattern}
	}
	return e
}

func literalBool(e query.Expr) (bool, bool) {
	l, ok := e.(*query.Literal)
	if !ok {
		return false, false
	}
	return l.Val.AsBool()
}

func foldBool(op string, lit bool, other query.Expr, rep *Report) query.Expr {
	switch {
	case op == "AND" && lit:
		if rep.explain {
			rep.log("fold: TRUE AND x → x")
		}
		return other
	case op == "AND" && !lit:
		if rep.explain {
			rep.log("fold: FALSE AND x → FALSE")
		}
		return &query.Literal{Val: model.Bool(false)}
	case op == "OR" && lit:
		if rep.explain {
			rep.log("fold: TRUE OR x → TRUE")
		}
		return &query.Literal{Val: model.Bool(true)}
	default:
		if rep.explain {
			rep.log("fold: FALSE OR x → x")
		}
		return other
	}
}

// foldLiteral replaces e by its value when every operand is a literal and
// the evaluator answers it without error; otherwise e runs as it is.
func foldLiteral(e query.Expr, rep *Report, operands ...query.Expr) query.Expr {
	for _, o := range operands {
		if _, ok := o.(*query.Literal); !ok {
			return e
		}
	}
	v, err := query.EvalConst(e)
	if err != nil {
		return e
	}
	if rep.explain {
		rep.log("fold: %s → %s", e, &query.Literal{Val: v})
	}
	return &query.Literal{Val: v}
}

// rewriteExprs maps fn over every expression embedded in the plan.
func rewriteExprs(n query.Node, fn func(query.Expr) query.Expr) query.Node {
	switch n := n.(type) {
	case *query.FilterNode:
		return &query.FilterNode{Input: rewriteExprs(n.Input, fn), Pred: fn(n.Pred)}
	case *query.JoinNode:
		return &query.JoinNode{L: rewriteExprs(n.L, fn), R: rewriteExprs(n.R, fn), On: fn(n.On)}
	case *query.ProjectNode:
		items := make([]query.SelectItem, len(n.Items))
		for i, it := range n.Items {
			items[i] = query.SelectItem{Expr: fn(it.Expr), Alias: it.Alias}
		}
		return &query.ProjectNode{Input: rewriteExprs(n.Input, fn), Star: n.Star, Items: items}
	case *query.AggregateNode:
		items := make([]query.SelectItem, len(n.Items))
		for i, it := range n.Items {
			items[i] = query.SelectItem{Expr: fn(it.Expr), Alias: it.Alias}
		}
		gs := make([]query.Expr, len(n.GroupBy))
		for i, g := range n.GroupBy {
			gs[i] = fn(g)
		}
		var having query.Expr
		if n.Having != nil {
			having = fn(n.Having)
		}
		return &query.AggregateNode{Input: rewriteExprs(n.Input, fn), GroupBy: gs, Items: items, Having: having}
	case *query.SortNode:
		keys := make([]query.OrderKey, len(n.Keys))
		for i, k := range n.Keys {
			keys[i] = query.OrderKey{Expr: fn(k.Expr), Desc: k.Desc}
		}
		return &query.SortNode{Input: rewriteExprs(n.Input, fn), Keys: keys}
	case *query.DistinctNode:
		return &query.DistinctNode{Input: rewriteExprs(n.Input, fn)}
	case *query.LimitNode:
		return &query.LimitNode{Input: rewriteExprs(n.Input, fn), N: n.N}
	}
	return n
}

// --- semantic rewrites (OS.3) -----------------------------------------

// isaPred recognizes ISA(<expr>, '<concept>') and returns the argument's
// canonical string and the concept.
func isaPred(e query.Expr) (arg string, concept string, ok bool) {
	c, isCall := e.(*query.Call)
	if !isCall || c.Name != "ISA" || len(c.Args) != 2 {
		return "", "", false
	}
	lit, isLit := c.Args[1].(*query.Literal)
	if !isLit {
		return "", "", false
	}
	s, isStr := lit.Val.AsString()
	if !isStr {
		return "", "", false
	}
	return c.Args[0].String(), s, true
}

// conjuncts appends the conjuncts of an AND tree to dst, left to right.
func conjuncts(dst []query.Expr, e query.Expr) []query.Expr {
	if b, ok := e.(*query.Binary); ok && b.Op == "AND" {
		return conjuncts(conjuncts(dst, b.L), b.R)
	}
	return append(dst, e)
}

// selectivity multiplies sel by each conjunct's selectivity, left to right,
// walking the AND tree without flattening it.
func selectivity(sel float64, e query.Expr, opts Options) float64 {
	if b, ok := e.(*query.Binary); ok && b.Op == "AND" {
		return selectivity(selectivity(sel, b.L, opts), b.R, opts)
	}
	return sel * conjunctSelectivity(e, opts)
}

// conjoin rebuilds an AND tree (nil for the empty set).
func conjoin(es []query.Expr) query.Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &query.Binary{Op: "AND", L: out, R: e}
	}
	return out
}

func semanticRewrite(n query.Node, sem Semantics, rep *Report) query.Node {
	switch n := n.(type) {
	case *query.FilterNode:
		input := semanticRewrite(n.Input, sem, rep)
		cs := conjuncts(nil, n.Pred)

		// Group ISA conjuncts by argument.
		type isaGroup struct {
			concepts []string
			indices  []int
		}
		groups := map[string]*isaGroup{}
		for i, c := range cs {
			if arg, concept, ok := isaPred(c); ok {
				g, exists := groups[arg]
				if !exists {
					g = &isaGroup{}
					groups[arg] = g
				}
				g.concepts = append(g.concepts, concept)
				g.indices = append(g.indices, i)
			}
		}

		drop := map[int]bool{}
		for arg, g := range groups {
			// Unsatisfiable conjunction → empty plan.
			for i := 0; i < len(g.concepts); i++ {
				if !sem.Satisfiable(g.concepts[i]) {
					if rep.explain {
						rep.log("unsat: concept %q is unsatisfiable", g.concepts[i])
					}
					return &query.EmptyNode{Reason: fmt.Sprintf("ISA(%s, %q) is unsatisfiable", arg, g.concepts[i])}
				}
				for j := i + 1; j < len(g.concepts); j++ {
					if sem.AreDisjoint(g.concepts[i], g.concepts[j]) {
						if rep.explain {
							rep.log("unsat: %q ⊓ %q is empty", g.concepts[i], g.concepts[j])
						}
						return &query.EmptyNode{Reason: fmt.Sprintf("%q and %q are disjoint", g.concepts[i], g.concepts[j])}
					}
				}
			}
			// Redundant superclass checks: keep only the most specific.
			for i := 0; i < len(g.concepts); i++ {
				for j := 0; j < len(g.concepts); j++ {
					if i == j || drop[g.indices[i]] || drop[g.indices[j]] {
						continue
					}
					// concepts[i] ⊑ concepts[j] ⇒ ISA(concepts[j]) redundant.
					if g.concepts[i] != g.concepts[j] && sem.Subsumes(g.concepts[j], g.concepts[i]) {
						drop[g.indices[j]] = true
						if rep.explain {
							rep.log("collapse: drop ISA(%s, %q) — implied by ISA(%s, %q)", arg, g.concepts[j], arg, g.concepts[i])
						}
					}
				}
			}
		}

		// ConceptScan tightening and redundancy against the scanned concept.
		if scan, ok := input.(*query.ConceptScanNode); ok {
			for i, c := range cs {
				if drop[i] {
					continue
				}
				arg, concept, ok := isaPred(c)
				if !ok || arg != scan.Binding+"._id" {
					continue
				}
				switch {
				case sem.AreDisjoint(concept, scan.Concept):
					if rep.explain {
						rep.log("unsat: scan %q disjoint from ISA %q", scan.Concept, concept)
					}
					return &query.EmptyNode{Reason: fmt.Sprintf("%q and %q are disjoint", scan.Concept, concept)}
				case sem.Subsumes(concept, scan.Concept):
					// Scanning C already guarantees ISA(D) for C ⊑ D.
					drop[i] = true
					if rep.explain {
						rep.log("collapse: drop ISA(%s, %q) — scan of %q implies it", arg, concept, scan.Concept)
					}
				case sem.Subsumes(scan.Concept, concept):
					// Tighten the scan to the subclass extent.
					input = &query.ConceptScanNode{Concept: concept, Binding: scan.Binding, Semantic: scan.Semantic}
					drop[i] = true
					if rep.explain {
						rep.log("tighten: scan %q narrowed to %q", scan.Concept, concept)
					}
				}
			}
		}

		var kept []query.Expr
		for i, c := range cs {
			if !drop[i] {
				kept = append(kept, c)
			}
		}
		pred := conjoin(kept)
		if pred == nil {
			return input
		}
		return &query.FilterNode{Input: input, Pred: pred}
	case *query.JoinNode:
		return &query.JoinNode{L: semanticRewrite(n.L, sem, rep), R: semanticRewrite(n.R, sem, rep), On: n.On}
	case *query.ProjectNode:
		return &query.ProjectNode{Input: semanticRewrite(n.Input, sem, rep), Star: n.Star, Items: n.Items}
	case *query.AggregateNode:
		return &query.AggregateNode{Input: semanticRewrite(n.Input, sem, rep), GroupBy: n.GroupBy, Items: n.Items, Having: n.Having}
	case *query.DistinctNode:
		return &query.DistinctNode{Input: semanticRewrite(n.Input, sem, rep)}
	case *query.SortNode:
		return &query.SortNode{Input: semanticRewrite(n.Input, sem, rep), Keys: n.Keys}
	case *query.LimitNode:
		return &query.LimitNode{Input: semanticRewrite(n.Input, sem, rep), N: n.N}
	case *query.ConceptScanNode:
		if !sem.Satisfiable(n.Concept) {
			if rep.explain {
				rep.log("unsat: concept %q is unsatisfiable", n.Concept)
			}
			return &query.EmptyNode{Reason: fmt.Sprintf("concept %q is unsatisfiable", n.Concept)}
		}
	}
	return n
}

// --- predicate pushdown ------------------------------------------------

// bindingsOf returns the bindings a subtree produces.
func bindingsOf(n query.Node) map[string]bool {
	switch n := n.(type) {
	case *query.ScanNode:
		return map[string]bool{n.Binding: true}
	case *query.IndexScanNode:
		return map[string]bool{n.Binding: true}
	case *query.ConceptScanNode:
		return map[string]bool{n.Binding: true}
	}
	out := map[string]bool{}
	for _, c := range query.Children(n) {
		for b := range bindingsOf(c) {
			out[b] = true
		}
	}
	return out
}

// exprBindings returns the bindings an expression references; unqualified
// references poison the set (nil means "unknown", preventing pushdown).
func exprBindings(e query.Expr) (map[string]bool, bool) {
	out := map[string]bool{}
	ok := true
	var walk func(query.Expr)
	walk = func(e query.Expr) {
		switch e := e.(type) {
		case *query.ColRef:
			if e.Binding == "" {
				ok = false
				return
			}
			out[e.Binding] = true
		case *query.Binary:
			walk(e.L)
			walk(e.R)
		case *query.Unary:
			walk(e.X)
		case *query.Call:
			for _, a := range e.Args {
				walk(a)
			}
		case *query.IsNull:
			walk(e.X)
		case *query.InList:
			walk(e.X)
		case *query.Like:
			walk(e.X)
		}
	}
	walk(e)
	return out, ok
}

func subset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// pushDownFilters moves single-side conjuncts of a Filter-over-Join below
// the join.
func pushDownFilters(n query.Node, rep *Report) query.Node {
	switch n := n.(type) {
	case *query.FilterNode:
		input := pushDownFilters(n.Input, rep)
		join, ok := input.(*query.JoinNode)
		if !ok {
			return &query.FilterNode{Input: input, Pred: n.Pred}
		}
		lb, rb := bindingsOf(join.L), bindingsOf(join.R)
		var toL, toR, stay []query.Expr
		for _, c := range conjuncts(nil, n.Pred) {
			bs, known := exprBindings(c)
			switch {
			case known && len(bs) > 0 && subset(bs, lb):
				toL = append(toL, c)
				if rep.explain {
					rep.log("pushdown: %s below join (left)", c)
				}
			case known && len(bs) > 0 && subset(bs, rb):
				toR = append(toR, c)
				if rep.explain {
					rep.log("pushdown: %s below join (right)", c)
				}
			default:
				stay = append(stay, c)
			}
		}
		l, r := join.L, join.R
		if p := conjoin(toL); p != nil {
			l = &query.FilterNode{Input: l, Pred: p}
		}
		if p := conjoin(toR); p != nil {
			r = &query.FilterNode{Input: r, Pred: p}
		}
		nj := &query.JoinNode{L: l, R: r, On: join.On}
		if p := conjoin(stay); p != nil {
			return &query.FilterNode{Input: nj, Pred: p}
		}
		return nj
	case *query.JoinNode:
		return &query.JoinNode{L: pushDownFilters(n.L, rep), R: pushDownFilters(n.R, rep), On: n.On}
	case *query.ProjectNode:
		return &query.ProjectNode{Input: pushDownFilters(n.Input, rep), Star: n.Star, Items: n.Items}
	case *query.AggregateNode:
		return &query.AggregateNode{Input: pushDownFilters(n.Input, rep), GroupBy: n.GroupBy, Items: n.Items, Having: n.Having}
	case *query.DistinctNode:
		return &query.DistinctNode{Input: pushDownFilters(n.Input, rep)}
	case *query.SortNode:
		return &query.SortNode{Input: pushDownFilters(n.Input, rep), Keys: n.Keys}
	case *query.LimitNode:
		return &query.LimitNode{Input: pushDownFilters(n.Input, rep), N: n.N}
	}
	return n
}

// --- access-path selection ----------------------------------------------

// zoneConjunct recognizes a sargable conjunct over the scan's binding:
// col OP literal (either orientation) or col IN (literals). Null literals
// are excluded for comparisons — they never evaluate True — but tolerated
// inside IN lists (they can only widen the answer to Unknown, never add a
// row, so storage may refute them freely). A Param is a literal that is
// never null (only a string or a number is lifted): it is returned beside
// the conjunct, whose Val the scan binds to its value.
func zoneConjunct(e query.Expr, binding string) (model.Conjunct, *query.Param, bool) {
	colOf := func(x query.Expr) (string, bool) {
		c, ok := x.(*query.ColRef)
		if !ok || (c.Binding != "" && c.Binding != binding) {
			return "", false
		}
		return c.Name, true
	}
	litOf := func(x query.Expr) (model.Value, *query.Param, bool) {
		switch l := x.(type) {
		case *query.Literal:
			return l.Val, nil, !l.Val.IsNull()
		case *query.Param:
			return model.Value{}, l, true
		}
		return model.Value{}, nil, false
	}
	switch e := e.(type) {
	case *query.Binary:
		flipped, sargable := flip(e.Op)
		if !sargable {
			return model.Conjunct{}, nil, false
		}
		if col, ok := colOf(e.L); ok {
			if v, p, ok := litOf(e.R); ok {
				return model.Conjunct{Attr: col, Op: e.Op, Val: v}, p, true
			}
		}
		if col, ok := colOf(e.R); ok {
			if v, p, ok := litOf(e.L); ok {
				return model.Conjunct{Attr: col, Op: flipped, Val: v}, p, true
			}
		}
	case *query.InList:
		if col, ok := colOf(e.X); ok && len(e.Vals) > 0 {
			return model.Conjunct{Attr: col, Op: "in", Vals: e.Vals}, nil, true
		}
	}
	return model.Conjunct{}, nil, false
}

// flip returns a sargable comparison with its operands swapped (a < b is
// b > a); any other operator is not sargable.
func flip(op string) (string, bool) {
	switch op {
	case "=":
		return "=", true
	case "<":
		return ">", true
	case "<=":
		return ">=", true
	case ">":
		return "<", true
	case ">=":
		return "<=", true
	}
	return "", false
}

// pushScanPredicates fuses Filter-over-Scan into an IndexScanNode whenever
// at least one conjunct is sargable. The scan hands the sargable conjuncts
// to storage (index selection + zone-map pruning) and re-applies the full
// predicate to the candidate rows, so the fusion is always answer-
// preserving — storage only ever narrows the rows it must look at.
func pushScanPredicates(n query.Node, rep *Report) query.Node {
	switch n := n.(type) {
	case *query.FilterNode:
		input := pushScanPredicates(n.Input, rep)
		// A function's rows are computed, not stored: no access path to pick.
		if scan, ok := input.(*query.ScanNode); ok && !scan.Call {
			var zone []model.Conjunct
			var params []*query.Param // nil until a conjunct's Val is a Param
			cs := conjuncts(nil, n.Pred)
			for _, c := range cs {
				zc, p, ok := zoneConjunct(c, scan.Binding)
				if !ok {
					continue
				}
				if p != nil && params == nil {
					params = make([]*query.Param, len(zone), len(cs))
				}
				zone = append(zone, zc)
				if params != nil {
					params = append(params, p)
				}
				if rep.explain {
					rep.log("accesspath: push %s into scan of %s", c, scan.Table)
				}
			}
			if len(zone) > 0 {
				return &query.IndexScanNode{Table: scan.Table, Binding: scan.Binding, Pred: n.Pred, Zone: zone, Params: params}
			}
		}
		return &query.FilterNode{Input: input, Pred: n.Pred}
	case *query.JoinNode:
		return &query.JoinNode{L: pushScanPredicates(n.L, rep), R: pushScanPredicates(n.R, rep), On: n.On}
	case *query.ProjectNode:
		return &query.ProjectNode{Input: pushScanPredicates(n.Input, rep), Star: n.Star, Items: n.Items}
	case *query.AggregateNode:
		return &query.AggregateNode{Input: pushScanPredicates(n.Input, rep), GroupBy: n.GroupBy, Items: n.Items, Having: n.Having}
	case *query.DistinctNode:
		return &query.DistinctNode{Input: pushScanPredicates(n.Input, rep)}
	case *query.SortNode:
		return &query.SortNode{Input: pushScanPredicates(n.Input, rep), Keys: n.Keys}
	case *query.LimitNode:
		return &query.LimitNode{Input: pushScanPredicates(n.Input, rep), N: n.N}
	}
	return n
}

// orderJoins puts the estimated-smaller input on the left (the probe side
// builds on the smaller at runtime; plan-level ordering also makes nested
// loops cheaper).
func orderJoins(n query.Node, opts Options, rep *Report) query.Node {
	switch n := n.(type) {
	case *query.JoinNode:
		l := orderJoins(n.L, opts, rep)
		r := orderJoins(n.R, opts, rep)
		if EstimateCard(l, opts) > EstimateCard(r, opts) {
			if rep.explain {
				rep.log("reorder: swap join inputs (est %d > %d)", EstimateCard(l, opts), EstimateCard(r, opts))
			}
			l, r = r, l
		}
		return &query.JoinNode{L: l, R: r, On: n.On}
	case *query.FilterNode:
		return &query.FilterNode{Input: orderJoins(n.Input, opts, rep), Pred: n.Pred}
	case *query.ProjectNode:
		return &query.ProjectNode{Input: orderJoins(n.Input, opts, rep), Star: n.Star, Items: n.Items}
	case *query.AggregateNode:
		return &query.AggregateNode{Input: orderJoins(n.Input, opts, rep), GroupBy: n.GroupBy, Items: n.Items, Having: n.Having}
	case *query.DistinctNode:
		return &query.DistinctNode{Input: orderJoins(n.Input, opts, rep)}
	case *query.SortNode:
		return &query.SortNode{Input: orderJoins(n.Input, opts, rep), Keys: n.Keys}
	case *query.LimitNode:
		return &query.LimitNode{Input: orderJoins(n.Input, opts, rep), N: n.N}
	}
	return n
}

// --- cost model ---------------------------------------------------------

// EstimateCard estimates the output cardinality of a plan node. Concept
// extents use ontology instance statistics — selectivity inferred from
// semantics when table stats are unavailable (OS.3).
func EstimateCard(n query.Node, opts Options) int {
	switch n := n.(type) {
	case *query.ScanNode:
		// A function's row count is unknown until it runs.
		if opts.Stats != nil && !n.Call {
			return opts.Stats.TableCard(n.Table)
		}
		return 1000
	case *query.IndexScanNode:
		in := 1000
		if opts.Stats != nil {
			in = opts.Stats.TableCard(n.Table)
		}
		est := int(float64(in) * selectivity(1, n.Pred, opts))
		if est < 1 && in > 0 {
			est = 1
		}
		return est
	case *query.ConceptScanNode:
		if opts.Semantics != nil {
			if c, ok := opts.Semantics.InstanceCount(n.Concept); ok {
				return c
			}
		}
		if opts.Stats != nil {
			return opts.Stats.TotalEntities()
		}
		return 1000
	case *query.EmptyNode:
		return 0
	case *query.FilterNode:
		in := EstimateCard(n.Input, opts)
		est := int(float64(in) * selectivity(1, n.Pred, opts))
		if est < 1 && in > 0 {
			est = 1
		}
		return est
	case *query.JoinNode:
		l, r := EstimateCard(n.L, opts), EstimateCard(n.R, opts)
		if _, _, ok := query.EquiJoinCols(n.On); ok {
			if l > r {
				return l
			}
			return r
		}
		return l * r
	case *query.ProjectNode:
		return EstimateCard(n.Input, opts)
	case *query.AggregateNode:
		in := EstimateCard(n.Input, opts)
		if len(n.GroupBy) == 0 {
			return 1
		}
		est := in / 10
		if est < 1 {
			est = 1
		}
		return est
	case *query.SortNode:
		return EstimateCard(n.Input, opts)
	case *query.DistinctNode:
		in := EstimateCard(n.Input, opts)
		est := in / 2
		if est < 1 && in > 0 {
			est = 1
		}
		return est
	case *query.LimitNode:
		in := EstimateCard(n.Input, opts)
		if in > n.N {
			return n.N
		}
		return in
	case *query.TopKNode:
		in := EstimateCard(n.Input, opts)
		if in > n.N {
			return n.N
		}
		return in
	}
	return 1000
}

// conjunctSelectivity estimates a single predicate's selectivity. ISA
// predicates use the ontology's instance counts relative to the total
// entity population.
func conjunctSelectivity(e query.Expr, opts Options) float64 {
	if _, concept, ok := isaPred(e); ok && opts.Semantics != nil && opts.Stats != nil {
		total := opts.Stats.TotalEntities()
		if c, haveCount := opts.Semantics.InstanceCount(concept); haveCount && total > 0 {
			sel := float64(c) / float64(total)
			if sel > 1 {
				return 1
			}
			return sel
		}
	}
	switch e := e.(type) {
	case *query.Binary:
		switch e.Op {
		case "=":
			return 0.1
		case "!=":
			return 0.9
		default:
			return 0.33
		}
	case *query.Like, *query.InList:
		return 0.25
	case *query.IsNull:
		return 0.1
	}
	return 0.5
}

// EstimateCost sums the rows produced by every node plus a small dispatch
// charge per morsel the parallel executor will schedule — a simple work
// metric the experiments compare across optimized and unoptimized plans.
func EstimateCost(n query.Node, opts Options) float64 {
	card := EstimateCard(n, opts)
	cost := float64(card) + float64(nodeMorsels(card))
	for _, c := range query.Children(n) {
		cost += EstimateCost(c, opts)
	}
	// Nested-loop joins additionally pay the cross-product scan.
	if j, ok := n.(*query.JoinNode); ok {
		if _, _, isEqui := query.EquiJoinCols(j.On); !isEqui {
			cost += float64(EstimateCard(j.L, opts)) * float64(EstimateCard(j.R, opts))
		}
	}
	return cost
}

// nodeMorsels is how many morsels a node emitting card rows schedules.
func nodeMorsels(card int) int {
	if card <= 0 {
		return 0
	}
	return (card + query.DefaultMorselSize - 1) / query.DefaultMorselSize
}

// EstimateMorsels estimates the total number of morsels the parallel
// executor schedules across every node of the plan.
func EstimateMorsels(n query.Node, opts Options) int {
	total := nodeMorsels(EstimateCard(n, opts))
	for _, c := range query.Children(n) {
		total += EstimateMorsels(c, opts)
	}
	return total
}
