package query

import (
	"fmt"
	"slices"
	"strings"

	"scdb/internal/model"
)

// Node is a logical/physical plan node. The tree is built by BuildPlan,
// rewritten by the optimizer package, and run by Execute.
type Node interface {
	// Label renders the node's own line for EXPLAIN output.
	Label() string
}

// ScanNode reads a storage table, a relation the environment derives, or,
// with Call set, the rows of the relation-valued function Table for Args.
type ScanNode struct {
	Table   string
	Binding string
	Call    bool
	Args    []model.Value
}

func (n *ScanNode) Label() string {
	if !n.Call {
		return fmt.Sprintf("Scan %s AS %s", n.Table, n.Binding)
	}
	var b strings.Builder
	writeSource(&b, n.Table, true, n.Args)
	return "Scan " + b.String() + " AS " + n.Binding
}

// IndexScanNode reads a storage table through a pushed-down predicate: the
// storage layer picks a secondary index for one sargable conjunct (if one
// exists or access traffic has self-created one) and prunes zone-map
// segments the conjuncts refute. The emitted rows are a superset of the
// matching rows, so the executor re-applies Pred in full — correctness
// never depends on which access path storage chose.
type IndexScanNode struct {
	Table   string
	Binding string
	Pred    Expr             // the full predicate the scan absorbed
	Zone    []model.Conjunct // sargable conjuncts handed to storage
	// Params, when non-nil, holds for each conjunct of Zone the statement
	// parameter its Val stands for, or nil: the scan binds their values at
	// execution.
	Params []*Param
}

func (n *IndexScanNode) Label() string {
	return fmt.Sprintf("IndexScan %s AS %s ON %s", n.Table, n.Binding, n.Pred.String())
}

// ConceptScanNode reads the entities holding an ontology concept — the
// semantic-layer FROM source.
type ConceptScanNode struct {
	Concept  string
	Binding  string
	Semantic bool
}

func (n *ConceptScanNode) Label() string {
	mode := "asserted"
	if n.Semantic {
		mode = "inferred"
	}
	return fmt.Sprintf("ConceptScan %q AS %s (%s)", n.Concept, n.Binding, mode)
}

// EmptyNode produces no rows; the optimizer plants it when semantics prove
// a query unsatisfiable (OS.3).
type EmptyNode struct {
	Reason string
}

func (n *EmptyNode) Label() string { return "Empty (" + n.Reason + ")" }

// RowsNode is a leaf over rows that are already in memory: one relation
// with the given output columns. The shard router runs a statement's final
// phase over its gathered partials with it, so that phase is planned and
// executed by this package and not restated there. Every column binds
// unqualified under its label, and a dotted label ("a.key", how SELECT * over
// several bindings and unaliased qualified items render) also binds under
// its qualifier, so both key and a.key resolve. A plan whose leaves are all
// RowsNodes needs no Env (pass nil to ExecuteOpts).
type RowsNode struct {
	Cols []string
	Rows [][]model.Value
}

func (n *RowsNode) Label() string { return fmt.Sprintf("Rows %d", len(n.Rows)) }

// FilterNode keeps rows whose predicate evaluates to True (three-valued:
// Unknown drops the row).
type FilterNode struct {
	Input Node
	Pred  Expr
}

func (n *FilterNode) Label() string { return "Filter " + n.Pred.String() }

// JoinNode joins two inputs on a predicate. Equi-joins on column pairs
// execute as hash joins; anything else falls back to nested loops.
type JoinNode struct {
	L, R Node
	On   Expr
}

func (n *JoinNode) Label() string { return "Join ON " + n.On.String() }

// ProjectNode computes the SELECT list (or passes rows through for *).
type ProjectNode struct {
	Input Node
	Star  bool
	Items []SelectItem
}

func (n *ProjectNode) Label() string {
	if n.Star {
		return "Project *"
	}
	parts := make([]string, len(n.Items))
	for i, it := range n.Items {
		parts[i] = it.Label()
	}
	return "Project " + strings.Join(parts, ", ")
}

// AggregateNode groups and aggregates; Having (optional) filters groups
// and may contain aggregate calls.
type AggregateNode struct {
	Input   Node
	GroupBy []Expr
	Items   []SelectItem
	Having  Expr
}

func (n *AggregateNode) Label() string {
	parts := make([]string, len(n.Items))
	for i, it := range n.Items {
		parts[i] = it.Label()
	}
	l := "Aggregate " + strings.Join(parts, ", ")
	if len(n.GroupBy) > 0 {
		var gs []string
		for _, g := range n.GroupBy {
			gs = append(gs, g.String())
		}
		l += " GROUP BY " + strings.Join(gs, ", ")
	}
	if n.Having != nil {
		l += " HAVING " + n.Having.String()
	}
	return l
}

// DistinctNode deduplicates rows on every visible column, keeping first
// occurrences.
type DistinctNode struct {
	Input Node
}

func (n *DistinctNode) Label() string { return "Distinct" }

// SortNode orders rows.
type SortNode struct {
	Input Node
	Keys  []OrderKey
}

func (n *SortNode) Label() string {
	parts := make([]string, len(n.Keys))
	for i, k := range n.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort " + strings.Join(parts, ", ")
}

// LimitNode truncates the row stream.
type LimitNode struct {
	Input Node
	N     int
}

func (n *LimitNode) Label() string { return fmt.Sprintf("Limit %d", n.N) }

// TopKNode is the fused Sort+Limit operator the optimizer plants: a bounded
// heap keeps the K first rows of the sort order, so the input is never
// fully sorted (and never fully materialized beyond K rows plus a morsel).
type TopKNode struct {
	Input Node
	Keys  []OrderKey
	N     int
}

func (n *TopKNode) Label() string {
	parts := make([]string, len(n.Keys))
	for i, k := range n.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return fmt.Sprintf("TopK %d BY %s", n.N, strings.Join(parts, ", "))
}

// Resolver tells the planner how FROM names resolve. Tables win over
// concepts on collision.
type Resolver interface {
	HasTable(name string) bool
	HasConcept(name string) bool
}

// BuildPlan lowers a parsed statement to the canonical plan: left-deep
// joins over the FROM/JOIN sources, then filter, then aggregation or
// projection, then sort and limit. The optimizer rewrites this tree.
func BuildPlan(stmt *SelectStmt, r Resolver) (Node, error) {
	src, err := sourceNode(stmt.From, r, stmt.Semantics)
	if err != nil {
		return nil, err
	}
	var root Node = src
	for _, j := range stmt.Joins {
		right, err := sourceNode(j.Table, r, stmt.Semantics)
		if err != nil {
			return nil, err
		}
		root = &JoinNode{L: root, R: right, On: j.On}
	}
	if stmt.Where != nil {
		root = &FilterNode{Input: root, Pred: stmt.Where}
	}

	hasAgg := false
	for _, it := range stmt.Items {
		if ContainsAggregate(it.Expr) {
			hasAgg = true
			break
		}
	}
	if hasAgg || len(stmt.GroupBy) > 0 || stmt.Distinct {
		if err := CheckOrderBy(stmt); err != nil {
			return nil, err
		}
	}
	if hasAgg || len(stmt.GroupBy) > 0 {
		if stmt.Star {
			return nil, fmt.Errorf("query: SELECT * cannot be combined with aggregation")
		}
		root = &AggregateNode{Input: root, GroupBy: stmt.GroupBy, Items: stmt.Items, Having: stmt.Having}
		if stmt.Distinct {
			root = &DistinctNode{Input: root}
		}
		if len(stmt.OrderBy) > 0 {
			root = &SortNode{Input: root, Keys: stmt.OrderBy}
		}
		if stmt.Limit >= 0 {
			root = &LimitNode{Input: root, N: stmt.Limit}
		}
		return root, nil
	}
	if stmt.Having != nil {
		return nil, fmt.Errorf("query: HAVING requires GROUP BY or aggregates")
	}

	if stmt.Distinct {
		// DISTINCT deduplicates the projected rows, so projection runs
		// first; ORDER BY may then only reference selected columns (the
		// standard SQL restriction).
		root = &ProjectNode{Input: root, Star: stmt.Star, Items: stmt.Items}
		root = &DistinctNode{Input: root}
		if len(stmt.OrderBy) > 0 {
			root = &SortNode{Input: root, Keys: stmt.OrderBy}
		}
		if stmt.Limit >= 0 {
			root = &LimitNode{Input: root, N: stmt.Limit}
		}
		return root, nil
	}

	if len(stmt.OrderBy) > 0 {
		root = &SortNode{Input: root, Keys: stmt.OrderBy}
	}
	if stmt.Limit >= 0 {
		root = &LimitNode{Input: root, N: stmt.Limit}
	}
	root = &ProjectNode{Input: root, Star: stmt.Star, Items: stmt.Items}
	return root, nil
}

// CheckOrderBy rejects an ORDER BY key of a DISTINCT or aggregated selection
// that reads a column its output does not carry: the sort runs over that
// output, where the column would read null and every row would tie. A
// dotted label carries its name under its qualifier too, as rows bind it.
func CheckOrderBy(stmt *SelectStmt) error {
	carried := func(c *ColRef) bool {
		return stmt.Star || slices.ContainsFunc(stmt.Items, func(it SelectItem) bool {
			l := it.Label()
			k := strings.Index(l, ".")
			return c.Binding == "" && l == c.Name || k > 0 && l[k+1:] == c.Name && (c.Binding == "" || c.Binding == l[:k])
		})
	}
	for _, k := range stmt.OrderBy {
		_, err := Rewrite(k.Expr, func(e Expr) (Expr, error) {
			if c, ok := e.(*ColRef); ok && !carried(c) {
				return nil, fmt.Errorf("query: ORDER BY %s reads %s, a column the selection's output does not carry", k.Expr, c)
			}
			if c, ok := e.(*Call); ok && aggFuncs[c.Name] {
				return e, nil // an aggregate in a sort key is the executor's error to report
			}
			return nil, nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func sourceNode(t TableRef, r Resolver, semantic bool) (Node, error) {
	switch {
	case t.Call:
		return &ScanNode{Table: t.Name, Binding: t.Binding(), Call: true, Args: t.Args}, nil
	case r.HasTable(t.Name):
		return &ScanNode{Table: t.Name, Binding: t.Binding()}, nil
	case r.HasConcept(t.Name):
		return &ConceptScanNode{Concept: t.Name, Binding: t.Binding(), Semantic: semantic}, nil
	}
	return nil, fmt.Errorf("query: unknown source %q (neither table nor concept)", t.Name)
}

// ContainsAggregate reports whether the expression mentions an aggregate
// function.
func ContainsAggregate(e Expr) bool {
	switch e := e.(type) {
	case *Call:
		if aggFuncs[e.Name] {
			return true
		}
		for _, a := range e.Args {
			if ContainsAggregate(a) {
				return true
			}
		}
	case *Unary:
		return ContainsAggregate(e.X)
	case *Binary:
		return ContainsAggregate(e.L) || ContainsAggregate(e.R)
	case *IsNull:
		return ContainsAggregate(e.X)
	case *InList:
		return ContainsAggregate(e.X)
	case *Like:
		return ContainsAggregate(e.X)
	}
	return false
}

// Rewrite returns e with f applied top-down. Where f returns a replacement,
// the subtree becomes it and is not descended; elsewhere the node is rebuilt
// over its rewritten operands, which are the operands ContainsAggregate
// looks through. The executor folds finalized aggregates into grouped
// expressions with it, and the shard router rewrites a statement's
// expressions over its gathered partials.
func Rewrite(e Expr, f func(Expr) (Expr, error)) (Expr, error) {
	if r, err := f(e); r != nil || err != nil {
		return r, err
	}
	switch e := e.(type) {
	case *Call:
		if len(e.Args) == 0 {
			return e, nil
		}
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			r, err := Rewrite(a, f)
			if err != nil {
				return nil, err
			}
			args[i] = r
		}
		return &Call{Name: e.Name, Args: args, Star: e.Star}, nil
	case *Unary:
		x, err := Rewrite(e.X, f)
		return &Unary{Op: e.Op, X: x}, err
	case *Binary:
		l, err := Rewrite(e.L, f)
		if err != nil {
			return nil, err
		}
		r, err := Rewrite(e.R, f)
		return &Binary{Op: e.Op, L: l, R: r}, err
	case *IsNull:
		x, err := Rewrite(e.X, f)
		return &IsNull{X: x, Negate: e.Negate}, err
	case *InList:
		x, err := Rewrite(e.X, f)
		return &InList{X: x, Vals: e.Vals}, err
	case *Like:
		x, err := Rewrite(e.X, f)
		return &Like{X: x, Pattern: e.Pattern}, err
	}
	return e, nil
}

// Explain renders the plan tree, one node per line, children indented.
func Explain(n Node) string {
	var b strings.Builder
	explain(&b, n, 0)
	return b.String()
}

func explain(b *strings.Builder, n Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Label())
	b.WriteByte('\n')
	for _, child := range Children(n) {
		explain(b, child, depth+1)
	}
}

// Children returns the node's inputs (for traversal by Explain and the
// optimizer).
func Children(n Node) []Node {
	switch n := n.(type) {
	case *FilterNode:
		return []Node{n.Input}
	case *JoinNode:
		return []Node{n.L, n.R}
	case *ProjectNode:
		return []Node{n.Input}
	case *AggregateNode:
		return []Node{n.Input}
	case *DistinctNode:
		return []Node{n.Input}
	case *SortNode:
		return []Node{n.Input}
	case *LimitNode:
		return []Node{n.Input}
	case *TopKNode:
		return []Node{n.Input}
	}
	return nil
}

// planSize is the number of nodes in the plan under n, n among them.
func planSize(n Node) int {
	size := 1
	for _, c := range Children(n) {
		size += planSize(c)
	}
	return size
}
