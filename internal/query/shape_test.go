package query

import "testing"

// TestShapeLiftsComparisonOperandsOnly: a string or number is lifted only
// when it is a whole comparison operand after a name; every value the
// optimizer or the executor reads as part of the statement stays in the
// shape, and so does everything in a statement that renders its plan.
func TestShapeLiftsComparisonOperandsOnly(t *testing.T) {
	for _, c := range []struct {
		src    string
		lifted int
	}{
		{"SELECT a FROM t WHERE a = 5", 1},
		{"SELECT a FROM t WHERE t.a <> 'x' AND \"b c\" >= 1.5 OR a < 2", 3},
		{"SELECT a = 'x' AS eq FROM t ORDER BY a > 3", 2},
		{"SELECT n, COUNT(*) AS c FROM t GROUP BY n HAVING c > 1", 1},
		{"SELECT a FROM t WHERE 5 = a", 0},
		{"SELECT a FROM t WHERE a = 5 + 1 OR a + 1 = 5 OR a = 2 * b", 0},
		{"SELECT a FROM t WHERE a = -5", 0},
		{"SELECT a FROM t WHERE a IN (1, 2) AND b LIKE 'x%' AND c IS NULL", 0},
		{"SELECT a FROM t WHERE a = NULL OR a = TRUE OR COUNT(*) > 1", 0},
		{"SELECT d.name FROM Drug AS d WHERE ISA(d._id, 'Drug') AND REACHES(d._id, 'X', 3)", 0},
		{"SELECT a FROM t ORDER BY a LIMIT 5 UNDER FUZZY(0.5)", 0},
		{"SELECT * FROM resolve('Warfarin', 'dose', 'vote')", 0},
		{"SELECT a FROM t WHERE a = 99999999999999999999", 0},
		{"EXPLAIN SELECT a FROM t WHERE a = 5", 0},
		{"EXPLAIN ANALYZE SELECT a FROM t WHERE a = 5", 0},
		{"TRACE SELECT a FROM t WHERE a = 5", 0},
	} {
		_, args, err := AppendShape(nil, nil, c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if len(args) != c.lifted {
			t.Errorf("%q lifts %d literals, want %d", c.src, len(args), c.lifted)
		}
	}
	shape := func(src string) string {
		k, _, err := AppendShape(nil, nil, src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		return string(k)
	}
	base := shape("SELECT a FROM t WHERE a = 5")
	for src, same := range map[string]bool{
		"select a from t where a=6 -- another key":   true,
		"SELECT  a\nFROM t WHERE a = 0":              true,
		"SELECT a FROM t WHERE a = 5.0":              false,
		"SELECT a FROM t WHERE a = '5'":              false,
		"SELECT A FROM t WHERE a = 5":                false,
		"SELECT a FROM t WHERE a = 5 LIMIT 1":        false,
		"EXPLAIN SELECT a FROM t WHERE a = 5":        false,
		"SELECT a FROM t WHERE a = 5 WITH SEMANTICS": false,
	} {
		if got := shape(src) == base; got != same {
			t.Errorf("%q shares the shape of a = 5: %v, want %v", src, got, same)
		}
	}
}
