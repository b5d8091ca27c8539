package query

import "testing"

// FuzzParse: the parser must never panic, and anything it accepts must
// have a stable canonical form. Runs its seed corpus under plain `go
// test`; `go test -fuzz=FuzzParse` explores further.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM t",
		"SELECT DISTINCT a, b AS c FROM t AS x JOIN u ON x.a = u.b WHERE a > 1 AND b IN (1, 'x', NULL) GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC LIMIT 5 WITH SEMANTICS UNDER FUZZY(0.5)",
		"SELECT ISA(x, 'Drug'), REACHES(x, 'y', 3, 'p'), CLOSE(a, 5.0, 0.5) FROM t",
		"SELECT 'it''s' + 1 - -2 FROM \"quoted table\"",
		"SELECT a FROM t -- comment\nWHERE b = 1",
		"SELECT COUNT(*) FROM t UNDER CERTAIN",
		"select lower(NAME) from T where name like '%x_'",
		"SELECT ((((a))))",
		"\x00\xff garbage",
		"SELECT",
		"",
		"SELECT * FROM justify('Warfarin', 'dose', 5.0, -0.5) AS j JOIN witnesses() ON j.context = witnesses.entity",
		"SELECT value FROM resolve('x', NULL, TRUE, 'it''s') r",
		"SELECT * FROM f(1,",
		"INSERT INTO claims (entity, attr, value, source, context, confidence) VALUES ('Warfarin', 'dose', 5.1, 'us', 'White', 0.9), ('Warfarin', 'dose', -3.4, 'it''s', '', 1)",
		"ADD AXIOMS 'concept ProbeThing', 'sub Drug ProbeThing'",
		"REFRESH RICHNESS",
		"EXPLAIN INSERT INTO claims (entity) VALUES ('x')",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		canon := stmt.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form unparseable: %q from %q: %v", canon, src, err)
		}
		if again.String() != canon {
			t.Fatalf("canonical form unstable: %q vs %q", canon, again.String())
		}
	})
}
