package query

import (
	"fmt"
	"strconv"
	"strings"

	"scdb/internal/model"
)

// Parse parses one SCQL statement: a SELECT, or a curation statement
// (INSERT INTO, ADD AXIOMS, REFRESH RICHNESS).
func Parse(src string) (*SelectStmt, error) { return parse(src, false) }

// parse is Parse, with each lifted literal (liftedValue) a Param when lift
// is set and the statement does not render its plan.
func parse(src string, lift bool) (*SelectStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src, lift: lift && !renders(toks)}
	trace := p.accept(tokKeyword, "TRACE")
	explain, analyze := false, false
	if p.accept(tokKeyword, "EXPLAIN") {
		if trace {
			return nil, p.errf("TRACE cannot be combined with EXPLAIN")
		}
		explain = true
		analyze = p.accept(tokKeyword, "ANALYZE")
	}
	var stmt *SelectStmt
	if p.atWord("INSERT") || p.atWord("ADD") || p.atWord("REFRESH") {
		if trace || explain {
			return nil, p.errf("%s cannot be explained or traced", strings.ToUpper(p.cur().text))
		}
		c, err := p.parseCurate()
		if err != nil {
			return nil, err
		}
		stmt = &SelectStmt{Limit: -1, Curate: c}
	} else if stmt, err = p.parseSelect(); err != nil {
		return nil, err
	}
	stmt.Trace = trace
	stmt.Explain = explain
	stmt.Analyze = analyze
	if !p.at(tokEOF, "") {
		return nil, p.errf("trailing input starting at %q", p.cur().text)
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
	src  string
	// lift makes each lifted literal (liftedValue) a Param; params counts
	// them.
	lift   bool
	params int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return token{}, p.errf("expected %s, found %q", want, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("query: parse error at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}

	if p.accept(tokKeyword, "DISTINCT") {
		stmt.Distinct = true
	}
	if p.accept(tokOp, "*") {
		stmt.Star = true
	} else {
		for len(stmt.Items) == 0 || p.accept(tokOp, ",") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept(tokKeyword, "AS") {
				id, err := p.parseName()
				if err != nil {
					return nil, err
				}
				item.Alias = id
			}
			stmt.Items = append(stmt.Items, item)
		}
	}

	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = from

	for p.accept(tokKeyword, "JOIN") {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, JoinClause{Table: tr, On: on})
	}

	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}

	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for len(stmt.GroupBy) == 0 || p.accept(tokOp, ",") {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, g)
		}
	}

	if p.accept(tokKeyword, "HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}

	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for len(stmt.OrderBy) == 0 || p.accept(tokOp, ",") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				key.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, key)
		}
	}

	if p.accept(tokKeyword, "LIMIT") {
		t, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("invalid LIMIT %q", t.text)
		}
		stmt.Limit = n
	}

	for p.accept(tokKeyword, "WITH") {
		if _, err := p.expect(tokKeyword, "SEMANTICS"); err != nil {
			return nil, err
		}
		stmt.Semantics = true
	}

	if p.accept(tokKeyword, "UNDER") {
		switch {
		case p.accept(tokKeyword, "CERTAIN"):
			stmt.Mode = AnswerCertain
		case p.accept(tokKeyword, "FUZZY"):
			if _, err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			t, err := p.expect(tokNumber, "")
			if err != nil {
				return nil, err
			}
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, p.errf("invalid FUZZY threshold %q", t.text)
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			stmt.Mode = AnswerFuzzy
			stmt.FuzzyThreshold = f
		default:
			return nil, p.errf("expected CERTAIN or FUZZY after UNDER")
		}
	}
	// Allow trailing WITH SEMANTICS after UNDER as well.
	for p.accept(tokKeyword, "WITH") {
		if _, err := p.expect(tokKeyword, "SEMANTICS"); err != nil {
			return nil, err
		}
		stmt.Semantics = true
	}
	return stmt, nil
}

// atWord reports whether the current token is the identifier w, in any
// case. The curation statements' words are not keywords, so they stay
// usable as names (FROM richness()).
func (p *parser) atWord(w string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, w)
}

func (p *parser) expectWord(w string) error {
	if !p.atWord(w) {
		return p.errf("expected %s, found %q", w, p.cur().text)
	}
	p.pos++
	return nil
}

// parseCurate parses a curation statement:
//
//	INSERT INTO name (column, …) VALUES (literal, …), …
//	ADD AXIOMS 'axiom', …
//	REFRESH RICHNESS
func (p *parser) parseCurate() (*CurateStmt, error) {
	switch strings.ToUpper(p.next().text) {
	case "ADD":
		if err := p.expectWord("AXIOMS"); err != nil {
			return nil, err
		}
		c := &CurateStmt{Kind: CurateAxioms}
		for len(c.Axioms) == 0 || p.accept(tokOp, ",") {
			t, err := p.expect(tokString, "")
			if err != nil {
				return nil, err
			}
			c.Axioms = append(c.Axioms, t.text)
		}
		return c, nil
	case "REFRESH":
		return &CurateStmt{Kind: CurateRichness}, p.expectWord("RICHNESS")
	}
	if err := p.expectWord("INTO"); err != nil {
		return nil, err
	}
	table, err := p.parseName()
	if err != nil {
		return nil, err
	}
	c := &CurateStmt{Kind: CurateInsert, Table: table}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	for len(c.Columns) == 0 || p.accept(tokOp, ",") {
		col, err := p.parseName()
		if err != nil {
			return nil, err
		}
		c.Columns = append(c.Columns, col)
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	if err := p.expectWord("VALUES"); err != nil {
		return nil, err
	}
	for len(c.Rows) == 0 || p.accept(tokOp, ",") {
		row, err := p.parseLiterals()
		if err != nil {
			return nil, err
		}
		if len(row) != len(c.Columns) {
			return nil, p.errf("a row of %d values for %d columns", len(row), len(c.Columns))
		}
		c.Rows = append(c.Rows, row)
	}
	return c, nil
}

// parseName parses an identifier or quoted identifier.
func (p *parser) parseName() (string, error) {
	if p.at(tokIdent, "") || p.at(tokQuoted, "") {
		t := p.next()
		if t.text == "" {
			return "", p.errf("empty quoted identifier")
		}
		return t.text, nil
	}
	return "", p.errf("expected identifier, found %q", p.cur().text)
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.parseName()
	if err != nil {
		return TableRef{}, err
	}
	// One qualifier, as in sys.metrics: the dotted name is the source's.
	if p.accept(tokOp, ".") {
		sub, err := p.parseName()
		if err != nil {
			return TableRef{}, err
		}
		name += "." + sub
	}
	tr := TableRef{Name: name}
	if p.at(tokOp, "(") {
		tr.Call = true
		if tr.Args, err = p.parseLiterals(); err != nil {
			return TableRef{}, err
		}
	}
	if p.accept(tokKeyword, "AS") {
		alias, err := p.parseName()
		if err != nil {
			return TableRef{}, err
		}
		tr.Alias = alias
	} else if p.at(tokIdent, "") {
		tr.Alias = p.next().text
	}
	return tr, nil
}

// Expression grammar: OR < AND < NOT < comparison < additive <
// multiplicative < unary < primary.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	switch {
	case p.at(tokOp, "=") || p.at(tokOp, "!=") || p.at(tokOp, "<") ||
		p.at(tokOp, "<=") || p.at(tokOp, ">") || p.at(tokOp, ">="):
		op := p.next().text
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: op, L: l, R: r}, nil
	case p.accept(tokKeyword, "IS"):
		negate := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Negate: negate}, nil
	case p.accept(tokKeyword, "IN"):
		vals, err := p.parseLiterals()
		if err == nil && len(vals) == 0 {
			err = p.errf("IN needs a value")
		}
		if err != nil {
			return nil, err
		}
		return &InList{X: l, Vals: vals}, nil
	case p.accept(tokKeyword, "LIKE"):
		t, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		return &Like{X: l, Pattern: t.text}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "+") || p.at(tokOp, "-") {
		op := p.next().text
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "*") || p.at(tokOp, "/") {
		op := p.next().text
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokOp, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold a negated numeric literal so "-116" round-trips as one
		// literal rather than a unary expression.
		if l, ok := x.(*Literal); ok {
			if i, ok := l.Val.AsInt(); ok {
				return &Literal{Val: model.Int(-i)}, nil
			}
			if f, ok := l.Val.AsFloat(); ok {
				return &Literal{Val: model.Float(-f)}, nil
			}
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

// tokenValue converts a literal token, a number, a string, NULL, TRUE or
// FALSE, to its value; ok is false for any other token.
func tokenValue(t token) (v model.Value, ok bool, err error) {
	switch {
	case t.kind == tokNumber:
		v, err = numberValue(t.text)
		return v, true, err
	case t.kind == tokString:
		return model.String(t.text), true, nil
	case t.kind == tokKeyword && t.text == "NULL":
		return model.Null(), true, nil
	case t.kind == tokKeyword && (t.text == "TRUE" || t.text == "FALSE"):
		return model.Bool(t.text == "TRUE"), true, nil
	}
	return model.Value{}, false, nil
}

func (p *parser) parseLiteralValue() (model.Value, error) {
	t := p.cur()
	if v, ok, err := tokenValue(t); ok {
		p.next()
		return v, err
	}
	if t.kind == tokOp && t.text == "-" {
		p.next()
		v, err := p.parseLiteralValue()
		if err != nil {
			return model.Value{}, err
		}
		if i, ok := v.AsInt(); ok {
			return model.Int(-i), nil
		}
		if f, ok := v.AsFloat(); ok {
			return model.Float(0 - f), nil // -0.0 is zero, which renders back as 0
		}
		return model.Value{}, p.errf("cannot negate %s", v)
	}
	return model.Value{}, p.errf("expected literal, found %q", t.text)
}

// parseLiterals parses a parenthesized list of literals, which may be
// empty.
func (p *parser) parseLiterals() ([]model.Value, error) {
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	var vals []model.Value
	for !p.accept(tokOp, ")") {
		if len(vals) > 0 {
			if _, err := p.expect(tokOp, ","); err != nil {
				return nil, err
			}
		}
		v, err := p.parseLiteralValue()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

func numberValue(text string) (model.Value, error) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return model.Value{}, fmt.Errorf("query: bad number %q", text)
		}
		return model.Float(f), nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return model.Value{}, fmt.Errorf("query: bad number %q", text)
	}
	return model.Int(i), nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	if p.lift {
		if v, ok := liftedValue(p.toks, p.pos); ok {
			p.next()
			p.params++
			return &Param{Index: p.params - 1, Val: v}, nil
		}
	}
	switch {
	case t.kind == tokNumber, t.kind == tokString,
		t.kind == tokKeyword && (t.text == "NULL" || t.text == "TRUE" || t.text == "FALSE"):
		v, err := p.parseLiteralValue()
		if err != nil {
			return nil, err
		}
		return &Literal{Val: v}, nil
	case t.kind == tokOp && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent || t.kind == tokQuoted:
		name := p.next().text
		// Function call?
		if p.accept(tokOp, "(") {
			call := &Call{Name: strings.ToUpper(name)}
			if p.accept(tokOp, "*") {
				call.Star = true
				if _, err := p.expect(tokOp, ")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if !p.accept(tokOp, ")") {
				for len(call.Args) == 0 || p.accept(tokOp, ",") {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
				}
				if _, err := p.expect(tokOp, ")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		// Qualified column?
		if p.accept(tokOp, ".") {
			col, err := p.parseName()
			if err != nil {
				return nil, err
			}
			return &ColRef{Binding: name, Name: col}, nil
		}
		return &ColRef{Name: name}, nil
	}
	return nil, p.errf("unexpected token %q", t.text)
}
