// Package query implements SCQL, the unified query language of the
// self-curating database (paper FS.5): one declarative language combining
// relational selection/projection/join/aggregation, semantic predicates
// that consult the ontology and reasoner (ISA), graph-traversal predicates
// over the relation layer (REACHES, LINKED), and fuzzy closeness (CLOSE),
// with answer-semantics modifiers (UNDER CERTAIN / UNDER FUZZY t) for
// queries over parallel worlds.
//
// The package provides the lexer, parser, logical plan, and executor; the
// optimizer package rewrites plans using the semantic layer (OS.3).
package query

import (
	"fmt"
	"strconv"
	"strings"

	"scdb/internal/model"
)

// Expr is a SCQL expression.
type Expr interface {
	fmt.Stringer
}

// Literal is a constant value.
type Literal struct {
	Val model.Value
}

func (l *Literal) String() string { return exprString(l, nil) }

// writeValue renders a value in SCQL literal syntax (single-quoted strings
// with a quote escaped by doubling it); other kinds use their natural
// rendering.
func writeValue(b *strings.Builder, v model.Value) {
	s, ok := v.AsString()
	if !ok {
		b.WriteString(v.String())
		return
	}
	b.WriteByte('\'')
	for {
		i := strings.IndexByte(s, '\'')
		if i < 0 {
			break
		}
		b.WriteString(s[:i+1])
		b.WriteByte('\'')
		s = s[i+1:]
	}
	b.WriteString(s)
	b.WriteByte('\'')
}

// ColRef references a column, optionally qualified by a binding (table
// alias).
type ColRef struct {
	Binding string
	Name    string
}

func (c *ColRef) String() string { return exprString(c, nil) }

// Unary is -x or NOT x.
type Unary struct {
	Op string // "-" or "NOT"
	X  Expr
}

func (u *Unary) String() string { return exprString(u, nil) }

// Binary is a binary operation: arithmetic (+ - * /), comparison
// (= != < <= > >=), or logical (AND OR).
type Binary struct {
	Op   string
	L, R Expr
}

func (b *Binary) String() string { return exprString(b, nil) }

// IsNull is "x IS NULL" (or IS NOT NULL when Negate).
type IsNull struct {
	X      Expr
	Negate bool
}

func (i *IsNull) String() string { return exprString(i, nil) }

// InList is "x IN (v1, v2, ...)".
type InList struct {
	X    Expr
	Vals []model.Value
}

func (i *InList) String() string { return exprString(i, nil) }

// Like is "x LIKE pattern" with % and _ wildcards.
type Like struct {
	X       Expr
	Pattern string
}

func (l *Like) String() string { return exprString(l, nil) }

// Call is a function call: aggregates (COUNT, SUM, AVG, MIN, MAX) and the
// semantic/graph builtins (ISA, REACHES, LINKED, CLOSE, TYPES).
type Call struct {
	Name string // canonical upper case
	Args []Expr
	Star bool // COUNT(*)
}

func (c *Call) String() string { return exprString(c, nil) }

// Param is a comparison literal the plan cache lifted out of a statement's
// text (ParseShape): slot Index of the values an execution binds
// (ExecOptions.Args). Val is the literal of the text that was parsed, which
// the expression renders as when no values are bound, so a message about
// that text reads as Parse's would.
type Param struct {
	Index int
	Val   model.Value
}

func (p *Param) String() string { return exprString(p, nil) }

// exprString renders one expression through writeExpr; a plain column
// name is its own rendering.
func exprString(e Expr, args []model.Value) string {
	if c, ok := e.(*ColRef); ok && c.Binding == "" && isPlainIdent(c.Name) {
		return c.Name
	}
	var b strings.Builder
	writeExpr(&b, e, args)
	return b.String()
}

// writeExpr renders an expression's canonical text into b: every operator
// application parenthesized, names quoted where they would not lex back as
// plain identifiers, literals in SCQL syntax, and each Param as its bound
// value, args[Index] (its own Val when args is nil). The statement text it
// builds is the materialization-cache key, so its bytes must not change.
func writeExpr(b *strings.Builder, e Expr, args []model.Value) {
	switch e := e.(type) {
	case *Literal:
		writeValue(b, e.Val)
	case *Param:
		if args == nil {
			writeValue(b, e.Val)
		} else {
			writeValue(b, args[e.Index])
		}
	case *ColRef:
		if e.Binding != "" {
			writeName(b, e.Binding)
			b.WriteByte('.')
		}
		writeName(b, e.Name)
	case *Unary:
		b.WriteByte('(')
		b.WriteString(e.Op)
		b.WriteByte(' ')
		writeExpr(b, e.X, args)
		b.WriteByte(')')
	case *Binary:
		b.WriteByte('(')
		writeExpr(b, e.L, args)
		b.WriteByte(' ')
		b.WriteString(e.Op)
		b.WriteByte(' ')
		writeExpr(b, e.R, args)
		b.WriteByte(')')
	case *IsNull:
		b.WriteByte('(')
		writeExpr(b, e.X, args)
		if e.Negate {
			b.WriteString(" IS NOT NULL)")
		} else {
			b.WriteString(" IS NULL)")
		}
	case *InList:
		b.WriteByte('(')
		writeExpr(b, e.X, args)
		b.WriteString(" IN (")
		writeValues(b, e.Vals)
		b.WriteString("))")
	case *Like:
		b.WriteByte('(')
		writeExpr(b, e.X, args)
		b.WriteString(" LIKE ")
		writeValue(b, model.String(e.Pattern))
		b.WriteByte(')')
	case *Call:
		b.WriteString(e.Name)
		if e.Star {
			b.WriteString("(*)")
			return
		}
		b.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, a, args)
		}
		b.WriteByte(')')
	default:
		b.WriteString(e.String())
	}
}

// SelectItem is one projected expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// Label returns the output column name.
func (s SelectItem) Label() string { return s.label(nil) }

// label is Label with each Param written as args[Index], the name an
// execution binding args gives the column.
func (s SelectItem) label(args []model.Value) string {
	if s.Alias != "" {
		return s.Alias
	}
	return exprString(s.Expr, args)
}

// TableRef names a FROM or JOIN source with an optional alias. A bare name
// resolves to a storage table or, failing that, an ontology concept
// (scanning the entities holding it) — the unification of tabular and
// semantic data in one FROM clause. A call, name(lit, …), is a
// relation-valued function the environment serves, never a table; a bare
// name is never a function.
type TableRef struct {
	Name  string
	Alias string
	// Call marks name(Args…); a call may take no arguments.
	Call bool
	Args []model.Value
}

// Binding returns the name expressions use to reference this source.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is one JOIN ... ON ....
type JoinClause struct {
	Table TableRef
	On    Expr
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// AnswerMode selects the answer semantics for queries over conflicting
// parallel worlds (Section 4.2).
type AnswerMode int

const (
	// AnswerDefault returns all rows that satisfy the query.
	AnswerDefault AnswerMode = iota
	// AnswerCertain keeps only answers every world supports.
	AnswerCertain
	// AnswerFuzzy keeps answers justified to at least Stmt.FuzzyThreshold
	// in some world.
	AnswerFuzzy
)

// SelectStmt is a parsed SCQL statement: a SELECT, or a curation
// statement when Curate is set.
type SelectStmt struct {
	Star     bool
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderKey
	Limit    int // -1 when absent

	// Explain is set by an EXPLAIN prefix: return the plan instead of
	// rows. Analyze (EXPLAIN ANALYZE) additionally executes the statement
	// and reports per-operator runtime statistics.
	Explain bool
	Analyze bool

	// Trace is set by a TRACE prefix: execute the statement and return
	// its hierarchical span tree (plan, execution, per-operator timings)
	// as a JSON document instead of rows.
	Trace bool

	// Semantics is set by WITH SEMANTICS: ISA consults inferred types and
	// the optimizer may use semantic rewrites.
	Semantics bool
	// Mode and FuzzyThreshold come from UNDER CERTAIN / UNDER FUZZY(t).
	Mode           AnswerMode
	FuzzyThreshold float64

	// Curate is set for a curation statement, which writes what a curator
	// tells the database instead of reading; every other field is zero.
	Curate *CurateStmt
}

// CurateKind names a curation statement's form.
type CurateKind int

const (
	CurateInsert   CurateKind = iota // INSERT INTO table (column, …) VALUES (literal, …), …
	CurateAxioms                     // ADD AXIOMS 'axiom', …
	CurateRichness                   // REFRESH RICHNESS
)

// CurateStmt is a parsed curation statement.
type CurateStmt struct {
	Kind CurateKind
	// Table, Columns and Rows are an INSERT's; every row has one value a
	// column.
	Table   string
	Columns []string
	Rows    [][]model.Value
	// Axioms are ADD AXIOMS' lines.
	Axioms []string
}

// Name is the statement's leading words, for messages.
func (c *CurateStmt) Name() string {
	return [...]string{"INSERT INTO " + c.Table, "ADD AXIOMS", "REFRESH RICHNESS"}[c.Kind]
}

// String renders the statement in the form Parse reads back.
func (c *CurateStmt) String() string {
	var b strings.Builder
	switch c.Kind {
	case CurateInsert:
		b.WriteString("INSERT INTO ")
		writeName(&b, c.Table)
		b.WriteString(" (")
		for i, col := range c.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			writeName(&b, col)
		}
		b.WriteString(") VALUES (")
		for i, row := range c.Rows {
			if i > 0 {
				b.WriteString("), (")
			}
			writeValues(&b, row)
		}
		b.WriteByte(')')
	case CurateAxioms:
		b.WriteString("ADD AXIOMS ")
		for i, ax := range c.Axioms {
			if i > 0 {
				b.WriteString(", ")
			}
			writeValue(&b, model.String(ax))
		}
	default:
		b.WriteString(c.Name())
	}
	return b.String()
}

// Sources lists the statement's FROM source and then its JOIN sources.
func (s *SelectStmt) Sources() []TableRef {
	out := []TableRef{s.From}
	for _, j := range s.Joins {
		out = append(out, j.Table)
	}
	return out
}

// String reassembles a canonical form of the statement (for EXPLAIN and
// the refinement engine, which manipulates statements programmatically).
// The text is the materialization-cache key: two spellings of one
// statement render alike.
func (s *SelectStmt) String() string { return s.StringWith(nil) }

// StringWith is String with each Param written as args[Index], the values
// one execution binds: a statement of ParseShape renders the key String
// renders for Parse's statement of the text those values came from.
func (s *SelectStmt) StringWith(args []model.Value) string {
	if s.Curate != nil {
		return s.Curate.String()
	}
	var b strings.Builder
	b.Grow(128) // a typical statement in one allocation, not five
	if s.Trace {
		b.WriteString("TRACE ")
	}
	if s.Explain {
		b.WriteString("EXPLAIN ")
		if s.Analyze {
			b.WriteString("ANALYZE ")
		}
	}
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	if s.Star {
		b.WriteString("*")
	} else {
		for i, it := range s.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(&b, it.Expr, args)
			if it.Alias != "" {
				b.WriteString(" AS ")
				writeName(&b, it.Alias)
			}
		}
	}
	b.WriteString(" FROM ")
	writeTable(&b, s.From)
	for _, j := range s.Joins {
		b.WriteString(" JOIN ")
		writeTable(&b, j.Table)
		b.WriteString(" ON ")
		writeExpr(&b, j.On, args)
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		writeExpr(&b, s.Where, args)
	}
	for i, g := range s.GroupBy {
		if i == 0 {
			b.WriteString(" GROUP BY ")
		} else {
			b.WriteString(", ")
		}
		writeExpr(&b, g, args)
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		writeExpr(&b, s.Having, args)
	}
	for i, o := range s.OrderBy {
		if i == 0 {
			b.WriteString(" ORDER BY ")
		} else {
			b.WriteString(", ")
		}
		writeExpr(&b, o.Expr, args)
		if o.Desc {
			b.WriteString(" DESC")
		}
	}
	var num [32]byte
	if s.Limit >= 0 {
		b.WriteString(" LIMIT ")
		b.Write(strconv.AppendInt(num[:0], int64(s.Limit), 10))
	}
	if s.Semantics {
		b.WriteString(" WITH SEMANTICS")
	}
	switch s.Mode {
	case AnswerCertain:
		b.WriteString(" UNDER CERTAIN")
	case AnswerFuzzy:
		b.WriteString(" UNDER FUZZY(")
		b.Write(strconv.AppendFloat(num[:0], s.FuzzyThreshold, 'g', -1, 64))
		b.WriteByte(')')
	}
	return b.String()
}

// writeTable renders a FROM or JOIN source: its name, a call's arguments
// and any alias.
func writeTable(b *strings.Builder, t TableRef) {
	writeSource(b, t.Name, t.Call, t.Args)
	if t.Alias != "" {
		b.WriteString(" AS ")
		writeName(b, t.Alias)
	}
}

// writeSource writes a source's name and, for a call, its parenthesized
// literal arguments.
func writeSource(b *strings.Builder, name string, call bool, args []model.Value) {
	writeName(b, name)
	if !call {
		return
	}
	b.WriteByte('(')
	writeValues(b, args)
	b.WriteByte(')')
}

// writeValues writes literals separated by commas.
func writeValues(b *strings.Builder, vals []model.Value) {
	for i, v := range vals {
		if i > 0 {
			b.WriteString(", ")
		}
		writeValue(b, v)
	}
}

// writeName writes a name, wrapped in double quotes when it would not lex
// back as a plain identifier (spaces, punctuation, leading digits,
// keywords).
func writeName(b *strings.Builder, n string) {
	if isPlainIdent(n) {
		b.WriteString(n)
		return
	}
	b.WriteByte('"')
	b.WriteString(n)
	b.WriteByte('"')
}

// isPlainIdent reports whether n lexes back as one identifier: ASCII
// letters, digits and underscores, no leading digit, not a keyword.
func isPlainIdent(n string) bool {
	if n == "" {
		return false
	}
	for i := 0; i < len(n); i++ {
		switch c := n[i]; {
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	_, kw := keywordOf(n)
	return !kw
}
