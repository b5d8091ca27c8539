package shard_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"scdb/internal/model"
	"scdb/internal/query"
)

// refStmtString is the statement renderer SelectStmt.String replaced, kept
// as its oracle: each expression renders through nested fmt.Sprintf, each
// name through strings.ToUpper against the keyword list.
func refStmtString(s *query.SelectStmt) string {
	var b strings.Builder
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
		parts := make([]string, len(s.Items))
		for i, it := range s.Items {
			parts[i] = refExpr(it.Expr)
			if it.Alias != "" {
				parts[i] += " AS " + refQuote(it.Alias)
			}
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	b.WriteString(" FROM " + refTable(s.From))
	for _, j := range s.Joins {
		b.WriteString(" JOIN " + refTable(j.Table) + " ON " + refExpr(j.On))
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + refExpr(s.Where))
	}
	if len(s.GroupBy) > 0 {
		parts := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			parts[i] = refExpr(g)
		}
		b.WriteString(" GROUP BY " + strings.Join(parts, ", "))
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + refExpr(s.Having))
	}
	if len(s.OrderBy) > 0 {
		parts := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			parts[i] = refExpr(o.Expr)
			if o.Desc {
				parts[i] += " DESC"
			}
		}
		b.WriteString(" ORDER BY " + strings.Join(parts, ", "))
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	if s.Semantics {
		b.WriteString(" WITH SEMANTICS")
	}
	switch s.Mode {
	case query.AnswerCertain:
		b.WriteString(" UNDER CERTAIN")
	case query.AnswerFuzzy:
		fmt.Fprintf(&b, " UNDER FUZZY(%g)", s.FuzzyThreshold)
	}
	return b.String()
}

func refTable(t query.TableRef) string {
	out := refQuote(t.Name)
	if t.Call {
		parts := make([]string, len(t.Args))
		for i, v := range t.Args {
			parts[i] = refValue(v)
		}
		out += "(" + strings.Join(parts, ", ") + ")"
	}
	if t.Alias != "" {
		out += " AS " + refQuote(t.Alias)
	}
	return out
}

func refExpr(e query.Expr) string {
	switch e := e.(type) {
	case *query.Literal:
		return refValue(e.Val)
	case *query.ColRef:
		if e.Binding != "" {
			return refQuote(e.Binding) + "." + refQuote(e.Name)
		}
		return refQuote(e.Name)
	case *query.Unary:
		return fmt.Sprintf("(%s %s)", e.Op, refExpr(e.X))
	case *query.Binary:
		return fmt.Sprintf("(%s %s %s)", refExpr(e.L), e.Op, refExpr(e.R))
	case *query.IsNull:
		if e.Negate {
			return fmt.Sprintf("(%s IS NOT NULL)", refExpr(e.X))
		}
		return fmt.Sprintf("(%s IS NULL)", refExpr(e.X))
	case *query.InList:
		parts := make([]string, len(e.Vals))
		for j, v := range e.Vals {
			parts[j] = refValue(v)
		}
		return fmt.Sprintf("(%s IN (%s))", refExpr(e.X), strings.Join(parts, ", "))
	case *query.Like:
		return fmt.Sprintf("(%s LIKE %s)", refExpr(e.X), refValue(model.String(e.Pattern)))
	case *query.Call:
		if e.Star {
			return e.Name + "(*)"
		}
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = refExpr(a)
		}
		return fmt.Sprintf("%s(%s)", e.Name, strings.Join(parts, ", "))
	}
	return e.String()
}

func refValue(v model.Value) string {
	if s, ok := v.AsString(); ok {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return v.String()
}

var refKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "JOIN": true, "ON": true,
	"AS": true, "AND": true, "OR": true, "NOT": true, "GROUP": true,
	"BY": true, "ORDER": true, "LIMIT": true, "ASC": true, "DESC": true,
	"IS": true, "NULL": true, "IN": true, "LIKE": true, "WITH": true,
	"DISTINCT": true, "HAVING": true, "EXPLAIN": true, "ANALYZE": true, "TRACE": true,
	"SEMANTICS": true, "UNDER": true, "CERTAIN": true, "FUZZY": true,
	"TRUE": true, "FALSE": true,
}

func refQuote(n string) string {
	plain := n != "" && !refKeywords[strings.ToUpper(n)]
	for i, r := range n {
		switch {
		case r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
		case r >= '0' && r <= '9':
			if i == 0 {
				plain = false
			}
		default:
			plain = false
		}
	}
	if plain {
		return n
	}
	return `"` + n + `"`
}

// TestStatementTextUnchanged: SelectStmt.String, the materialization-cache
// key, renders every statement of the generated differential's grammar (and
// the hand-written statements below, which reach the quoting, prefix and
// answer-mode branches it does not) byte for byte as the old renderer did.
func TestStatementTextUnchanged(t *testing.T) {
	stmts := append([]string{
		`SELECT * FROM t`,
		`TRACE SELECT a FROM t`,
		`EXPLAIN ANALYZE SELECT DISTINCT a AS "select", b AS "two words" FROM "my table" AS x JOIN u AS "from" ON x.a = "from".b`,
		`EXPLAIN SELECT "1a", ö, "Order" FROM t WHERE a IN (1, 2.5, 'it''s', NULL, TRUE) AND b LIKE '%''x_' OR NOT c IS NULL`,
		`SELECT -a, - (a + 1), COUNT(*), COALESCE(a, -1.5) FROM t GROUP BY a, b HAVING COUNT(*) > 1 ORDER BY a DESC, b LIMIT 0`,
		`SELECT name FROM Drug AS d WHERE REACHES(d._id, 'Osteosarcoma', 3) ORDER BY name LIMIT 12345 WITH SEMANTICS UNDER FUZZY(0.125)`,
		`SELECT * FROM claims UNDER CERTAIN WITH SEMANTICS`,
		`SELECT a FROM t WHERE a = 100000000000000000000.0 OR a = 0.1 OR a = 3.0`,
		`SELECT * FROM witnesses()`,
		`SELECT j.context FROM justify('Warfarin', 'it''s', 5.0, -0.5) j JOIN "my func"(1, NULL, TRUE) AS "from" ON j.a = "from".b`,
		`SELECT value FROM resolve('Warfarin', 'color', 'vote') UNDER FUZZY(0.5)`,
	}, differentialQueries...)
	g := stmtGen{rand.New(rand.NewSource(1))}
	for i := 0; i < 2000; i++ {
		stmts = append(stmts, g.stmt())
	}
	for _, src := range stmts {
		stmt, err := query.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got, want := stmt.String(), refStmtString(stmt); got != want {
			t.Errorf("%s renders\n  %s\nwas\n  %s", src, got, want)
		}
	}
}
