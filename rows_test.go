package scdb

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"scdb/internal/model"
)

// describe renders a public value with the dynamic type of every cell, so
// two renderings are equal exactly when the values are: NaN reads NaN,
// -0 reads -0, a nil slice differs from an empty one, and int64(1)
// differs from float64(1).
func describe(x any) string {
	if l, ok := x.([]any); ok {
		parts := make([]string, len(l))
		for i, e := range l {
			parts[i] = describe(e)
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	return fmt.Sprintf("%T(%#v)", x, x)
}

// randomValue draws a value of the given kind; KindList nests up to depth.
func randomValue(rng *rand.Rand, kind model.Kind, depth int) model.Value {
	switch kind {
	case model.KindBool:
		return model.Bool(rng.Intn(2) == 0)
	case model.KindInt:
		return model.Int([]int64{0, 1, -1, 255, 256, math.MaxInt64, math.MinInt64, rng.Int63()}[rng.Intn(8)])
	case model.KindFloat:
		return model.Float([]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, rng.NormFloat64()}[rng.Intn(7)])
	case model.KindString:
		return model.String([]string{"", "a", "\xff\xfe", "ünï", strings.Repeat("w", rng.Intn(40))}[rng.Intn(5)])
	case model.KindTime:
		return model.Time(time.Unix(0, rng.Int63n(1<<62)-1<<61))
	case model.KindBytes:
		return model.Bytes([][]byte{nil, {}, []byte("abc"), {0, 0xff, 7}}[rng.Intn(4)])
	case model.KindRef:
		return model.Ref(model.EntityID(rng.Uint64()))
	case model.KindList:
		if depth <= 0 {
			return model.List()
		}
		elems := make([]model.Value, rng.Intn(4))
		for i := range elems {
			elems[i] = randomValue(rng, model.Kind(rng.Intn(int(model.KindRef)+1)), depth-1)
		}
		return model.List(elems...)
	}
	return model.Null()
}

// randomRows draws rows whose columns are each of one kind with nulls, of
// mixed kinds, or all null; every third table is ragged.
func randomRows(rng *rand.Rand) [][]model.Value {
	width := 1 + rng.Intn(6)
	kinds := make([]int, width) // -1: mixed kinds
	for c := range kinds {
		kinds[c] = rng.Intn(int(model.KindRef)+2) - 1
	}
	rows := make([][]model.Value, rng.Intn(40))
	ragged := rng.Intn(3) == 0
	for i := range rows {
		w := width
		if ragged {
			w = rng.Intn(width + 1)
		}
		rows[i] = make([]model.Value, w)
		for c := range rows[i] {
			k := model.Kind(kinds[c])
			if kinds[c] < 0 {
				k = model.Kind(rng.Intn(int(model.KindRef) + 1))
			}
			if rng.Intn(5) > 0 {
				rows[i][c] = randomValue(rng, k, 2)
			}
		}
	}
	return rows
}

// TestFromRowsMatchesPerCell: FromRows answers what converting each cell
// with fromValue answers, over randomized rows of every kind, and every
// row it returns has cap equal to len.
func TestFromRowsMatchesPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 2000; iter++ {
		rows := randomRows(rng)
		prefix := [][]any{{"kept"}}
		got := FromRows(prefix, rows)
		if len(got) != len(rows)+1 || describe(got[0][0]) != describe("kept") {
			t.Fatalf("iteration %d: FromRows lost dst's prefix or rows: %d rows", iter, len(got))
		}
		for i, r := range rows {
			g := got[i+1]
			if len(g) != len(r) || cap(g) != len(g) {
				t.Fatalf("iteration %d row %d: len %d cap %d, want both %d", iter, i, len(g), cap(g), len(r))
			}
			for c, v := range r {
				if a, b := describe(g[c]), describe(fromValue(v)); a != b {
					t.Fatalf("iteration %d row %d col %d: %s, per cell %s", iter, i, c, a, b)
				}
			}
		}
	}
}

// TestFromRowsCellsAreIndependent: rows and bytes cells share backing
// arrays, but appending to a row or writing into a bytes cell never shows
// through in a neighbour.
func TestFromRowsCellsAreIndependent(t *testing.T) {
	rows := [][]model.Value{
		{model.Bytes([]byte("ab")), model.Int(1)},
		{model.Bytes([]byte("cd")), model.Int(2)},
	}
	data := FromRows(nil, rows)
	data[0] = append(data[0], "extra")
	if data[1][0] == nil || string(data[1][0].([]byte)) != "cd" || data[1][1].(int64) != 2 {
		t.Fatalf("appending to row 0 changed row 1: %v", data[1])
	}
	b := data[0][0].([]byte)
	b[0], b[1] = 'x', 'y'
	b = append(b, 'z')
	if got := string(data[1][0].([]byte)); got != "cd" {
		t.Errorf("writing into row 0's bytes changed row 1's to %q", got)
	}
	if stored, _ := rows[0][0].AsBytes(); string(stored) != "ab" {
		t.Errorf("writing into a result cell changed the engine's value to %q", stored)
	}
}

// TestFromRowsAllocations: a 1024-row, 5-column result costs a few objects
// per column, not one per cell.
func TestFromRowsAllocations(t *testing.T) {
	const n, cols = 1024, 5
	rows := make([][]model.Value, n)
	for i := range rows {
		rows[i] = []model.Value{
			model.String(fmt.Sprintf("name %d", i)), model.Int(int64(i) << 20),
			model.Float(float64(i) / 3), model.Time(time.Unix(int64(i), 0)), model.Ref(model.EntityID(i)),
		}
	}
	if a := testing.AllocsPerRun(20, func() { FromRows(nil, rows) }); a > 2+2*cols {
		t.Errorf("FromRows of %d×%d: %.0f allocations, want at most %d", n, cols, a, 2+2*cols)
	}
}
