package shard_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"scdb"
)

// kindsCorpus is one source whose attributes carry every kind a cell can
// hold: a time, bytes (some empty, one nil), a float, a ref, a bool, a list, an
// attribute of mixed kinds, one most entities lack (null) and one a single
// entity holds, so the shards of a 3-shard cluster see different SELECT *
// schemas.
func kindsCorpus() scdb.Source {
	src := scdb.Source{Name: "kinds"}
	base := time.Date(2016, 3, 15, 9, 30, 0, 0, time.UTC)
	mixed := []any{int64(3), "three", 2.5, true, int64(-1), "alpha", 0.125, false}
	for i := 0; i < 16; i++ {
		attrs := scdb.Record{
			"t":    base.Add(time.Duration(i%5) * 36 * time.Hour).Add(time.Duration(i) * time.Nanosecond),
			"blob": []byte(strings.Repeat(string(rune('a'+i%4)), i%3)),
			"f":    float64(i%6)/4 - 0.5,
			"ref":  scdb.EntityRef(100 + i%4),
			"ok":   i%3 == 0,
			"m":    mixed[i%len(mixed)],
			"tags": []any{fmt.Sprintf("tag%d", i%2), int64(i)},
		}
		if i == 6 {
			attrs["blob"] = []byte(nil) // the wire reads nil bytes back empty
		}
		if i%4 == 1 {
			attrs["note"] = fmt.Sprintf("note %d", i)
		}
		if i == 9 {
			attrs["rare"] = 9.75
		}
		src.Entities = append(src.Entities, scdb.Entity{Key: fmt.Sprintf("K-%02d", i), Attrs: attrs})
	}
	return src
}

// describe renders a result with every cell's dynamic type, so two
// renderings agree only when the answers agree cell for cell, kind for kind.
func describe(rows *scdb.Rows, sorted bool) string {
	lines := make([]string, len(rows.Data))
	for i, row := range rows.Data {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = fmt.Sprintf("%T(%#v)", v, v)
		}
		lines[i] = strings.Join(cells, " | ")
	}
	if sorted {
		sort.Strings(lines)
	}
	return strings.Join(rows.Columns, " | ") + "\n" + strings.Join(lines, "\n")
}

// TestRoutedEveryKindDifferential: over a source with a time, bytes, float,
// ref, bool, list, mixed-kind and null attribute, SELECT * (the shards
// answering different column sets), ORDER BY, GROUP BY, DISTINCT and a
// keyed read answer alike — every cell of the same kind and value —
// embedded, on 1 shard and on 3. A statement without ORDER BY is compared
// sorted against the engine, which answers in storage order.
func TestRoutedEveryKindDifferential(t *testing.T) {
	ctx := context.Background()
	db, err := scdb.Open(scdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	src := kindsCorpus()
	if err := db.IngestCtx(ctx, src); err != nil {
		t.Fatal(err)
	}
	c1, c3 := newTestCluster(t, 1), newTestCluster(t, 3)
	for _, c := range []*testCluster{c1, c3} {
		if _, err := c.rc.IngestBatch(ctx, src, 5); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		q       string
		ordered bool
	}{
		{"SELECT * FROM kinds", false},
		{"SELECT * FROM kinds WHERE f > 0.5", false},
		{"SELECT * FROM kinds WHERE _key = 'K-09'", false},
		{"SELECT _key, t, blob, f, ref, ok, m, tags, note FROM kinds ORDER BY t DESC, _key", true},
		{"SELECT _key, blob FROM kinds ORDER BY blob DESC, _key LIMIT 5", true},
		{"SELECT _key, ref, rare FROM kinds ORDER BY rare, ref, _key", true},
		{"SELECT t, COUNT(*) AS n, MIN(f) AS lo, MAX(f) AS hi, SUM(f) AS s FROM kinds GROUP BY t ORDER BY t", true},
		{"SELECT blob, COUNT(*) AS n, MIN(t) AS first FROM kinds GROUP BY blob ORDER BY blob", true},
		{"SELECT ref, ok, COUNT(*) AS n, AVG(f) AS a FROM kinds GROUP BY ref, ok ORDER BY ref, ok", true},
		{"SELECT note, COUNT(*) AS n FROM kinds GROUP BY note ORDER BY note", true},
		{"SELECT m, COUNT(*) AS n FROM kinds GROUP BY m", false},
		{"SELECT DISTINCT ref FROM kinds ORDER BY ref", true},
		{"SELECT DISTINCT blob, t FROM kinds ORDER BY blob, t", true},
		{"SELECT DISTINCT m FROM kinds", false},
		{"SELECT DISTINCT note FROM kinds ORDER BY note DESC", true},
	} {
		r0, err := db.Query(tc.q)
		if err != nil {
			t.Fatalf("embedded %s: %v", tc.q, err)
		}
		r1, err := c1.rc.Query(tc.q)
		if err != nil {
			t.Fatalf("1 shard %s: %v", tc.q, err)
		}
		r3, err := c3.rc.Query(tc.q)
		if err != nil {
			t.Fatalf("3 shards %s: %v", tc.q, err)
		}
		if len(r0.Data) == 0 {
			t.Fatalf("%s answers no rows", tc.q)
		}
		g0, g1, g3 := describe(r0, !tc.ordered), describe(r1, !tc.ordered), describe(r3, !tc.ordered)
		if g0 != g1 {
			t.Errorf("%s diverges:\nembedded:\n%s\n1 shard:\n%s", tc.q, g0, g1)
		}
		if g1 != g3 {
			t.Errorf("%s diverges:\n1 shard:\n%s\n3 shards:\n%s", tc.q, g1, g3)
		}
	}
}
