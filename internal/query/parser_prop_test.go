package query

import (
	"math/rand"
	"testing"
	"testing/quick"

	"scdb/internal/model"
)

// randomExpr builds a random expression of bounded depth using only
// constructs with stable canonical forms.
func randomExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return &Literal{Val: model.Int(r.Int63n(1000) - 500)}
		case 1:
			return &Literal{Val: model.String([]string{"a", "it's", "x y", ""}[r.Intn(4)])}
		case 2:
			return &ColRef{Name: []string{"name", "dose", "gene"}[r.Intn(3)]}
		default:
			return &ColRef{Binding: "t", Name: []string{"name", "dose"}[r.Intn(2)]}
		}
	}
	switch r.Intn(8) {
	case 0:
		return &Binary{Op: []string{"+", "-", "*", "/"}[r.Intn(4)], L: randomExpr(r, depth-1), R: randomExpr(r, depth-1)}
	case 1:
		return &Binary{Op: []string{"=", "!=", "<", "<=", ">", ">="}[r.Intn(6)], L: randomExpr(r, depth-1), R: randomExpr(r, depth-1)}
	case 2:
		return &Binary{Op: []string{"AND", "OR"}[r.Intn(2)], L: randomExpr(r, depth-1), R: randomExpr(r, depth-1)}
	case 3:
		return &Unary{Op: "NOT", X: randomExpr(r, depth-1)}
	case 4:
		return &IsNull{X: randomExpr(r, depth-1), Negate: r.Intn(2) == 1}
	case 5:
		return &InList{X: randomExpr(r, depth-1), Vals: []model.Value{model.Int(1), model.String("v")}}
	case 6:
		return &Like{X: randomExpr(r, depth-1), Pattern: "a%_'b"}
	default:
		return &Call{Name: "COALESCE", Args: []Expr{randomExpr(r, depth-1), randomExpr(r, depth-1)}}
	}
}

// randomSource is a table, or a function call over random literals.
func randomSource(r *rand.Rand, alias string) TableRef {
	if r.Intn(2) == 0 {
		return TableRef{Name: "drugs", Alias: alias}
	}
	t := TableRef{Name: []string{"witnesses", "justify", "suggest_links"}[r.Intn(3)], Alias: alias, Call: true}
	for i := r.Intn(5); i > 0; i-- {
		t.Args = append(t.Args, []model.Value{
			model.Int(r.Int63n(1000) - 500), model.Float(0.5), model.Float(-2.25),
			model.String("it's"), model.String(""), model.Bool(true), model.Null(),
		}[r.Intn(7)])
	}
	return t
}

// TestPropertyExprRoundTrip: rendering a random expression and re-parsing
// it yields the same canonical form — the property the refinement engine
// (which manipulates statements as strings) depends on.
func TestPropertyExprRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 3)
		stmt := &SelectStmt{Star: true, From: TableRef{Name: "t"}, Where: e, Limit: -1}
		src := stmt.String()
		parsed, err := Parse(src)
		if err != nil {
			t.Logf("parse(%q): %v", src, err)
			return false
		}
		if parsed.String() != src {
			t.Logf("unstable canonical form:\n  %s\n  %s", src, parsed.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStatementRoundTrip exercises whole statements with random
// clause combinations.
func TestPropertyStatementRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		stmt := &SelectStmt{From: randomSource(r, "d"), Limit: -1}
		if r.Intn(3) == 0 {
			stmt.Joins = []JoinClause{{Table: randomSource(r, []string{"", "j"}[r.Intn(2)]), On: randomExpr(r, 1)}}
		}
		if r.Intn(2) == 0 {
			stmt.Star = true
		} else {
			stmt.Items = []SelectItem{{Expr: randomExpr(r, 2)}, {Expr: randomExpr(r, 1), Alias: "x"}}
		}
		if r.Intn(2) == 0 {
			stmt.Distinct = true
		}
		if r.Intn(2) == 0 {
			stmt.Where = randomExpr(r, 2)
		}
		if !stmt.Star && r.Intn(2) == 0 {
			stmt.GroupBy = []Expr{randomExpr(r, 1)}
			if r.Intn(2) == 0 {
				stmt.Having = randomExpr(r, 1)
			}
		}
		if r.Intn(2) == 0 {
			stmt.OrderBy = []OrderKey{{Expr: randomExpr(r, 1), Desc: r.Intn(2) == 0}}
		}
		if r.Intn(2) == 0 {
			stmt.Limit = r.Intn(100)
		}
		if r.Intn(2) == 0 {
			stmt.Semantics = true
		}
		switch r.Intn(3) {
		case 1:
			stmt.Mode = AnswerCertain
		case 2:
			stmt.Mode = AnswerFuzzy
			stmt.FuzzyThreshold = 0.5
		}
		src := stmt.String()
		parsed, err := Parse(src)
		if err != nil {
			t.Logf("parse(%q): %v", src, err)
			return false
		}
		if parsed.String() != src {
			t.Logf("unstable:\n  %s\n  %s", src, parsed.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
