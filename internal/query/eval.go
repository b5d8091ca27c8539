package query

import (
	"fmt"
	"slices"
	"strings"

	"scdb/internal/model"
)

// Env is what the executor needs from the database: tabular scans from the
// instance layer, concept scans and semantic predicates from the relation
// and semantic layers. The core package implements it over the real engine;
// tests implement it over fixtures.
type Env interface {
	// ScanTable opens a scan of a storage table that yields its records in
	// morsels of about size records, reporting whether the table exists.
	// The executor pulls the cursor on whichever goroutine needs the next
	// morsel, so a scan never materializes the table, and a satisfied LIMIT
	// stops one early by pulling no further. With zone conjuncts the
	// environment may answer any superset of the matching rows (secondary
	// indexes, zone-map pruning) in morsels of its own choosing and says
	// what it did in the cursor's Info; the executor re-applies the full
	// predicate either way.
	ScanTable(name string, zone []model.Conjunct, size int) (cur ScanCursor, found bool)
	// ScanFunction opens a scan of what FROM name(args…) answers, under the
	// same contract; an unknown function or a bad argument is an error.
	ScanFunction(name string, args []model.Value, size int) (ScanCursor, error)
	// ScanConcept opens a scan that yields one record per entity holding
	// the concept (attributes plus "_id" ref and "_key") under the same
	// contract, reporting whether the concept is known. With semantic=false
	// only asserted types count.
	ScanConcept(concept string, semantic bool, size int) (cur ScanCursor, found bool)
	// IsA reports whether the entity reference holds the concept.
	IsA(v model.Value, concept string, semantic bool) model.Truth
	// Reaches reports whether the entity reference reaches the entity
	// named target (by key or name) within k hops over pred ("" = any);
	// with semantic, pred's sub-roles count as pred.
	Reaches(from model.Value, target string, k int, pred string, semantic bool) model.Truth
	// Linked reports whether an edge with pred ("" = any; with semantic,
	// or one of its sub-roles) connects the two entity references.
	Linked(a, b model.Value, pred string, semantic bool) model.Truth
	// TypesOf returns the entity's types as a list value.
	TypesOf(v model.Value, semantic bool) model.Value
	// PredictType returns the statistical layer's best type prediction for
	// the entity as a string value (null when no model or no entity) — the
	// ML extension of the unified language FS.5 asks about.
	PredictType(v model.Value) model.Value
}

// ScanCursor is an opened scan. The executor never pulls one from two
// goroutines at once.
type ScanCursor interface {
	// Next returns the next morsel of records, or nil once the scan is
	// exhausted or the statement's context ended. A returned slice stays
	// valid after later pulls: the executor hands it to its workers.
	Next() []model.Record
	// Info reports what a pushed-down scan has done so far.
	Info() PushedScanInfo
}

// RecordChunks is a ScanCursor over records already in memory, Size of them
// a morsel (a Size of zero or less means DefaultMorselSize).
type RecordChunks struct {
	Recs []model.Record
	Size int
}

func (c *RecordChunks) Next() []model.Record {
	if len(c.Recs) == 0 {
		return nil
	}
	size := c.Size
	if size <= 0 {
		size = DefaultMorselSize
	}
	n := min(size, len(c.Recs))
	m := c.Recs[:n:n]
	c.Recs = c.Recs[n:]
	return m
}

func (c *RecordChunks) Info() PushedScanInfo { return PushedScanInfo{} }

// Records makes a record of each row, its values keyed by cols.
func Records(cols []string, rows [][]model.Value) []model.Record {
	recs := make([]model.Record, len(rows))
	for i, vals := range rows {
		recs[i] = make(model.Record, len(cols))
		for j, c := range cols {
			recs[i][c] = vals[j]
		}
	}
	return recs
}

// Relations is an Env over named in-memory relations, their records
// scanned as tables. It holds no entity graph and no function: a concept
// or a call is an unknown source, and an entity predicate over a value
// answers as an engine's does over a value that is no entity reference,
// unknown or null.
type Relations map[string][]model.Record

func (r Relations) HasTable(name string) bool { _, ok := r[name]; return ok }
func (Relations) HasConcept(string) bool      { return false }

func (r Relations) ScanTable(name string, _ []model.Conjunct, size int) (ScanCursor, bool) {
	recs, ok := r[name]
	return &RecordChunks{Recs: recs, Size: size}, ok
}

func (Relations) ScanFunction(name string, _ []model.Value, _ int) (ScanCursor, error) {
	return nil, fmt.Errorf("query: unknown function %s()", name)
}

func (Relations) ScanConcept(string, bool, int) (ScanCursor, bool)           { return nil, false }
func (Relations) IsA(model.Value, string, bool) model.Truth                  { return model.Unknown }
func (Relations) Reaches(model.Value, string, int, string, bool) model.Truth { return model.Unknown }
func (Relations) Linked(model.Value, model.Value, string, bool) model.Truth  { return model.Unknown }
func (Relations) TypesOf(model.Value, bool) model.Value                      { return model.Null() }
func (Relations) PredictType(model.Value) model.Value                        { return model.Null() }

// Row is one tuple flowing through the executor. A bound row borrows the
// storage records it was scanned from, one frame per FROM binding (a join
// concatenates frames); an output row of Project, Aggregate or RowsNode
// carries one value per label of its shape. Absent attributes of a known
// binding read as null — the open-world reading of heterogeneous records.
// Frames are never written: storage publishes immutable version records.
type Row struct {
	sh   *rowShape
	recs []model.Record // one per sh.bindings
	vals []model.Value  // one per sh.cols
}

// rowShape is what the rows of one operator's output share: the binding of
// each frame and the label of each slot. A dotted label ("a.key", how an
// unaliased qualified item renders) also binds under its qualifier, so both
// key and a.key resolve.
type rowShape struct {
	bindings []string
	cols     []string
}

var noShape = &rowShape{}

// concat is the shape of a join's output: sh's frames and slots, then o's.
func (sh *rowShape) concat(o *rowShape) *rowShape {
	return &rowShape{append(slices.Clone(sh.bindings), o.bindings...), append(slices.Clone(sh.cols), o.cols...)}
}

// merge combines two rows (for joins) under sh, their shapes' concat.
func (r Row) merge(o Row, sh *rowShape) Row {
	out := Row{sh: sh, recs: append(slices.Clip(r.recs), o.recs...)}
	if len(sh.cols) > 0 {
		out.vals = append(slices.Clip(r.vals), o.vals...)
	}
	return out
}

// Lookup resolves a column reference. Qualified references to a known
// binding read null when the attribute is absent; unqualified references
// resolve when exactly one binding carries the name, read null when no
// binding does, and error when ambiguous. Slots sharing a label are one
// column; the last one answers.
func (r Row) Lookup(binding, name string) (model.Value, error) {
	sh := r.sh
	if sh == nil {
		sh = noShape
	}
	if binding != "" {
		for i, b := range sh.bindings {
			if b == binding {
				return r.recs[i][name], nil
			}
		}
		known := false
		for i := len(sh.cols) - 1; i >= 0; i-- {
			if q, n, dotted := strings.Cut(sh.cols[i], "."); dotted && q == binding {
				if n == name {
					return r.vals[i], nil
				}
				known = true
			}
		}
		if known {
			return model.Null(), nil
		}
		return model.Null(), fmt.Errorf("query: unknown binding %q", binding)
	}
	var found model.Value
	matches := 0
	for _, rec := range r.recs {
		if v, ok := rec[name]; ok {
			found = v
			matches++
		}
	}
	for i, at := len(sh.cols)-1, -1; i >= 0; i-- {
		if q, n, dotted := strings.Cut(sh.cols[i], "."); sh.cols[i] != name && (!dotted || q == "" || n != name) {
			continue
		}
		if at < 0 || sh.cols[i] != sh.cols[at] {
			at, found = i, r.vals[i]
			matches++
		}
	}
	switch matches {
	case 0:
		return model.Null(), nil
	case 1:
		return found, nil
	}
	return model.Null(), fmt.Errorf("query: ambiguous column %q", name)
}

// evalCtx carries evaluation state. env is nil when the plan's only leaves
// are RowsNodes.
type evalCtx struct {
	env      Env
	semantic bool
	args     []model.Value // the values of the plan's Params
	// strict makes a comparison of incomparable kinds an error instead of
	// the heterogeneity rule's answer (EvalConst).
	strict bool
}

// holds reports whether pred is true of r: false and unknown both fail it.
func (c *evalCtx) holds(pred Expr, r Row) (bool, error) {
	v, err := c.Eval(pred, r)
	if err != nil {
		return false, err
	}
	t, err := truth3(v)
	return t == model.True, err
}

// truth3 interprets a value as three-valued truth: null is Unknown.
func truth3(v model.Value) (model.Truth, error) {
	if v.IsNull() {
		return model.Unknown, nil
	}
	if b, ok := v.AsBool(); ok {
		return model.TruthOf(b), nil
	}
	return model.Unknown, fmt.Errorf("query: value %s is not boolean", v)
}

// truthValue renders three-valued truth back as a value: Unknown is null.
func truthValue(t model.Truth) model.Value {
	switch t {
	case model.True:
		return model.Bool(true)
	case model.False:
		return model.Bool(false)
	}
	return model.Null()
}

// EvalConst evaluates an expression with no row, environment or
// arguments; e holds no Param and no Call. The optimizer folds a
// literal-only subexpression through it, so a fold answers what execution
// would. A comparison of incomparable kinds is an error here: the
// heterogeneity rule answers it at run time.
func EvalConst(e Expr) (model.Value, error) {
	return (&evalCtx{strict: true}).Eval(e, Row{})
}

// Eval evaluates the expression against a row.
func (c *evalCtx) Eval(e Expr, row Row) (model.Value, error) {
	switch e := e.(type) {
	case *Literal:
		return e.Val, nil
	case *Param:
		return c.args[e.Index], nil
	case *ColRef:
		return row.Lookup(e.Binding, e.Name)
	case *Unary:
		return c.evalUnary(e, row)
	case *Binary:
		return c.evalBinary(e, row)
	case *IsNull:
		v, err := c.Eval(e.X, row)
		if err != nil {
			return model.Value{}, err
		}
		return model.Bool(v.IsNull() != e.Negate), nil
	case *InList:
		return c.evalIn(e, row)
	case *Like:
		v, err := c.Eval(e.X, row)
		if err != nil {
			return model.Value{}, err
		}
		if v.IsNull() {
			return model.Null(), nil
		}
		s, ok := v.AsString()
		if !ok {
			s = v.Text()
		}
		return model.Bool(likeMatch(e.Pattern, s)), nil
	case *Call:
		return c.evalCall(e, row)
	}
	return model.Value{}, fmt.Errorf("query: cannot evaluate %T", e)
}

func (c *evalCtx) evalUnary(e *Unary, row Row) (model.Value, error) {
	v, err := c.Eval(e.X, row)
	if err != nil {
		return model.Value{}, err
	}
	switch e.Op {
	case "-":
		if v.IsNull() {
			return model.Null(), nil
		}
		if i, ok := v.AsInt(); ok {
			return model.Int(-i), nil
		}
		if f, ok := v.AsFloat(); ok {
			return model.Float(-f), nil
		}
		return model.Value{}, fmt.Errorf("query: cannot negate %s", v)
	case "NOT":
		t, err := truth3(v)
		if err != nil {
			return model.Value{}, err
		}
		return truthValue(t.Not()), nil
	}
	return model.Value{}, fmt.Errorf("query: unknown unary op %q", e.Op)
}

func (c *evalCtx) evalBinary(e *Binary, row Row) (model.Value, error) {
	switch e.Op {
	case "AND", "OR":
		lv, err := c.Eval(e.L, row)
		if err != nil {
			return model.Value{}, err
		}
		lt, err := truth3(lv)
		if err != nil {
			return model.Value{}, err
		}
		// Short-circuit where three-valued logic allows.
		if e.Op == "AND" && lt == model.False {
			return model.Bool(false), nil
		}
		if e.Op == "OR" && lt == model.True {
			return model.Bool(true), nil
		}
		rv, err := c.Eval(e.R, row)
		if err != nil {
			return model.Value{}, err
		}
		rt, err := truth3(rv)
		if err != nil {
			return model.Value{}, err
		}
		if e.Op == "AND" {
			return truthValue(lt.And(rt)), nil
		}
		return truthValue(lt.Or(rt)), nil
	}

	lv, err := c.Eval(e.L, row)
	if err != nil {
		return model.Value{}, err
	}
	rv, err := c.Eval(e.R, row)
	if err != nil {
		return model.Value{}, err
	}
	switch e.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if lv.IsNull() || rv.IsNull() {
			return model.Null(), nil
		}
		cmp, err := model.Compare(lv, rv)
		if err != nil {
			if c.strict {
				return model.Value{}, err
			}
			// Incomparable kinds: heterogeneity reads as Unknown, not as a
			// query failure (the "systematic treatment" rule).
			if e.Op == "=" {
				return model.Bool(false), nil
			}
			if e.Op == "!=" {
				return model.Bool(true), nil
			}
			return model.Null(), nil
		}
		if e.Op == "!=" {
			return model.Bool(cmp != 0), nil
		}
		lo, hi := model.Sides(e.Op)
		return model.Bool(lo <= cmp && cmp < hi), nil
	case "+", "-", "*", "/":
		if lv.IsNull() || rv.IsNull() {
			return model.Null(), nil
		}
		lf, lok := lv.AsFloat()
		rf, rok := rv.AsFloat()
		if !lok || !rok {
			if e.Op == "+" {
				// String concatenation.
				if ls, ok := lv.AsString(); ok {
					return model.String(ls + rv.Text()), nil
				}
			}
			return model.Value{}, fmt.Errorf("query: %s needs numeric operands, got %s and %s", e.Op, lv, rv)
		}
		li, lInt := lv.AsInt()
		ri, rInt := rv.AsInt()
		switch e.Op {
		case "+":
			if lInt && rInt {
				return model.Int(li + ri), nil
			}
			return model.Float(lf + rf), nil
		case "-":
			if lInt && rInt {
				return model.Int(li - ri), nil
			}
			return model.Float(lf - rf), nil
		case "*":
			if lInt && rInt {
				return model.Int(li * ri), nil
			}
			return model.Float(lf * rf), nil
		case "/":
			if rf == 0 {
				return model.Null(), nil
			}
			return model.Float(lf / rf), nil
		}
	}
	return model.Value{}, fmt.Errorf("query: unknown operator %q", e.Op)
}

func (c *evalCtx) evalIn(e *InList, row Row) (model.Value, error) {
	v, err := c.Eval(e.X, row)
	if err != nil {
		return model.Value{}, err
	}
	if v.IsNull() {
		return model.Null(), nil
	}
	sawNull := false
	for _, cand := range e.Vals {
		if cand.IsNull() {
			sawNull = true
			continue
		}
		if model.Equal(v, cand) {
			return model.Bool(true), nil
		}
	}
	if sawNull {
		return model.Null(), nil
	}
	return model.Bool(false), nil
}

// aggFuncs are handled by the Aggregate operator, not scalar evaluation.
var aggFuncs = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (c *evalCtx) evalCall(e *Call, row Row) (model.Value, error) {
	if aggFuncs[e.Name] {
		return model.Value{}, fmt.Errorf("query: aggregate %s used outside SELECT/HAVING aggregation", e.Name)
	}
	argv := make([]model.Value, len(e.Args))
	for i, a := range e.Args {
		v, err := c.Eval(a, row)
		if err != nil {
			return model.Value{}, err
		}
		argv[i] = v
	}
	switch e.Name {
	case "ISA", "REACHES", "LINKED", "TYPES", "PREDICT":
		// A plan over a RowsNode runs without an Env: there is no graph to
		// consult, and Unknown would be a silent wrong answer.
		if c.env == nil {
			return model.Value{}, fmt.Errorf("query: %s needs the entity graph, which a plan over literal rows does not have", e.Name)
		}
	}
	switch e.Name {
	case "ISA":
		if len(argv) != 2 {
			return model.Value{}, fmt.Errorf("query: ISA(ref, concept) takes 2 arguments")
		}
		concept, ok := argv[1].AsString()
		if !ok {
			return model.Value{}, fmt.Errorf("query: ISA concept must be a string")
		}
		return truthValue(c.env.IsA(argv[0], concept, c.semantic)), nil
	case "REACHES":
		if len(argv) < 3 || len(argv) > 4 {
			return model.Value{}, fmt.Errorf("query: REACHES(ref, target, k [, pred]) takes 3-4 arguments")
		}
		target, ok := argv[1].AsString()
		if !ok {
			return model.Value{}, fmt.Errorf("query: REACHES target must be a string")
		}
		k, ok := argv[2].AsInt()
		if !ok {
			return model.Value{}, fmt.Errorf("query: REACHES hop count must be an integer")
		}
		pred := ""
		if len(argv) == 4 {
			pred, ok = argv[3].AsString()
			if !ok {
				return model.Value{}, fmt.Errorf("query: REACHES predicate must be a string")
			}
		}
		return truthValue(c.env.Reaches(argv[0], target, int(k), pred, c.semantic)), nil
	case "LINKED":
		if len(argv) < 2 || len(argv) > 3 {
			return model.Value{}, fmt.Errorf("query: LINKED(a, b [, pred]) takes 2-3 arguments")
		}
		pred := ""
		if len(argv) == 3 {
			var ok bool
			pred, ok = argv[2].AsString()
			if !ok {
				return model.Value{}, fmt.Errorf("query: LINKED predicate must be a string")
			}
		}
		return truthValue(c.env.Linked(argv[0], argv[1], pred, c.semantic)), nil
	case "CLOSE":
		if len(argv) != 3 {
			return model.Value{}, fmt.Errorf("query: CLOSE(x, target, tol) takes 3 arguments")
		}
		x, xok := argv[0].AsFloat()
		tgt, tok := argv[1].AsFloat()
		tol, lok := argv[2].AsFloat()
		if argv[0].IsNull() {
			return model.Null(), nil
		}
		if !xok || !tok || !lok {
			return model.Value{}, fmt.Errorf("query: CLOSE arguments must be numeric")
		}
		return model.Float(float64(model.Closeness(x, tgt, tol))), nil
	case "TYPES":
		if len(argv) != 1 {
			return model.Value{}, fmt.Errorf("query: TYPES(ref) takes 1 argument")
		}
		return c.env.TypesOf(argv[0], c.semantic), nil
	case "PREDICT":
		if len(argv) != 1 {
			return model.Value{}, fmt.Errorf("query: PREDICT(ref) takes 1 argument")
		}
		return c.env.PredictType(argv[0]), nil
	case "LOWER", "UPPER":
		if len(argv) != 1 {
			return model.Value{}, fmt.Errorf("query: %s takes 1 argument", e.Name)
		}
		if argv[0].IsNull() {
			return model.Null(), nil
		}
		s := argv[0].Text()
		if e.Name == "LOWER" {
			return model.String(strings.ToLower(s)), nil
		}
		return model.String(strings.ToUpper(s)), nil
	case "LENGTH":
		if len(argv) != 1 {
			return model.Value{}, fmt.Errorf("query: LENGTH takes 1 argument")
		}
		if argv[0].IsNull() {
			return model.Null(), nil
		}
		if l, ok := argv[0].AsList(); ok {
			return model.Int(int64(len(l))), nil
		}
		return model.Int(int64(len(argv[0].Text()))), nil
	case "ABS":
		if len(argv) != 1 {
			return model.Value{}, fmt.Errorf("query: ABS takes 1 argument")
		}
		if argv[0].IsNull() {
			return model.Null(), nil
		}
		if i, ok := argv[0].AsInt(); ok {
			if i < 0 {
				i = -i
			}
			return model.Int(i), nil
		}
		if f, ok := argv[0].AsFloat(); ok {
			if f < 0 {
				f = -f
			}
			return model.Float(f), nil
		}
		return model.Value{}, fmt.Errorf("query: ABS needs a numeric argument")
	case "COALESCE":
		for _, v := range argv {
			if !v.IsNull() {
				return v, nil
			}
		}
		return model.Null(), nil
	}
	return model.Value{}, fmt.Errorf("query: unknown function %s", e.Name)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single rune),
// case-insensitively.
func likeMatch(pattern, s string) bool {
	return likeRunes([]rune(strings.ToLower(pattern)), []rune(strings.ToLower(s)))
}

func likeRunes(p, s []rune) bool {
	if len(p) == 0 {
		return len(s) == 0
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeRunes(p[1:], s[i:]) {
				return true
			}
		}
		return false
	case '_':
		return len(s) > 0 && likeRunes(p[1:], s[1:])
	default:
		return len(s) > 0 && s[0] == p[0] && likeRunes(p[1:], s[1:])
	}
}
