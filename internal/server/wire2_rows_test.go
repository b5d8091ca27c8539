package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"scdb"
	"scdb/internal/model"
)

// refDecodeRowBatch is the per-cell batch decoder the value decoder
// replaced, kept as its oracle: one string per intern-table entry, one
// slice per row, one box per cell.
func refDecodeRowBatch(payload []byte) ([][]any, error) {
	d := &v2Dec{b: payload}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)) {
		return nil, fmt.Errorf("wire2: intern table count %d exceeds frame", n)
	}
	if n > 0 {
		d.tab = make([]string, n)
		for i := range d.tab {
			ln, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if ln > uint64(len(d.b)) {
				return nil, errV2Truncated
			}
			d.tab[i] = string(d.b[:ln])
			d.b = d.b[ln:]
		}
	}
	nrows, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	ncols, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nrows > v2MaxRowsPerBatch || ncols > v2MaxCols || nrows*ncols > v2MaxCells {
		return nil, fmt.Errorf("wire2: batch dimensions %d x %d out of bounds", nrows, ncols)
	}
	var dst [][]any
	for r := uint64(0); r < nrows; r++ {
		dst = append(dst, make([]any, ncols))
	}
	for c := uint64(0); c < ncols; c++ {
		tag, err := d.u8()
		if err != nil {
			return nil, err
		}
		if tag == v2kList {
			return nil, errors.New("wire2: list column must be mixed-tagged")
		}
		for r := uint64(0); r < nrows; r++ {
			var v any
			if tag == v2kMixed {
				v, err = d.value(0)
			} else {
				v, err = d.valueOfKind(tag, 0)
			}
			if err != nil {
				return nil, err
			}
			dst[r][c] = v
		}
	}
	return dst, nil
}

// describeCell renders a decoded cell with the dynamic type of every
// value, so equal renderings mean equal cells (NaN and -0 included).
func describeCell(x any) string {
	if l, ok := x.([]any); ok {
		parts := make([]string, len(l))
		for i, e := range l {
			parts[i] = describeCell(e)
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	return fmt.Sprintf("%T(%#v)", x, x)
}

// checkDecodeAgainstOracle decodes payload with the value decoder plus
// scdb.FromRows, as DecodeV2RowBatch does and as a reader reusing its
// intern-table and values scratch does, and with the per-cell oracle: all
// must fail, or all succeed with equal rows, each row with cap equal to
// len.
func checkDecodeAgainstOracle(t *testing.T, payload []byte) {
	t.Helper()
	want, refErr := refDecodeRowBatch(payload)
	// A reader's scratch, dirty from an earlier frame.
	b := V2ReadBuf{tab: []string{"stale", "stale"}}
	rows, vals := make([][]model.Value, 1, 4), make([]model.Value, 2, 64)
	rows[0] = vals[:2]
	for pass, decode := range []func() ([][]any, error){
		func() ([][]any, error) { return DecodeV2RowBatch(payload, nil) },
		func() ([][]any, error) {
			got, _, err := b.DecodeRows(payload, rows[:0], vals[:0])
			if err != nil {
				return nil, err
			}
			return scdb.FromRows(nil, got), nil
		},
	} {
		got, err := decode()
		if (err == nil) != (refErr == nil) {
			t.Fatalf("pass %d: decoder error %v, oracle error %v", pass, err, refErr)
		}
		if err != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("pass %d: decoded %d rows, oracle %d", pass, len(got), len(want))
		}
		for i := range got {
			if len(got[i]) != len(want[i]) || cap(got[i]) != len(got[i]) {
				t.Fatalf("pass %d row %d: len %d cap %d, oracle len %d", pass, i, len(got[i]), cap(got[i]), len(want[i]))
			}
			for c := range got[i] {
				if a, b := describeCell(got[i][c]), describeCell(want[i][c]); a != b {
					t.Fatalf("pass %d row %d col %d: %s, oracle %s", pass, i, c, a, b)
				}
			}
		}
	}
}

// everyKindBatch is a batch with a column of each kind — all null, bool,
// int, float with NaN and -0, string, time, bytes with an empty cell, ref,
// list — and a column of mixed kinds.
func everyKindBatch() [][]model.Value {
	ts := time.Date(2016, 3, 15, 9, 30, 0, 1, time.UTC)
	return [][]model.Value{
		{model.Null(), model.Bool(true), model.Int(math.MinInt64), model.Float(math.NaN()), model.String("alpha"), model.Time(ts),
			model.Bytes([]byte("ab")), model.Ref(7), model.List(model.String("x"), model.Bytes(nil)), model.Int(1)},
		{model.Null(), model.Bool(false), model.Int(0), model.Float(math.Copysign(0, -1)), model.String(""), model.Time(time.Unix(0, -1)),
			model.Bytes([]byte{}), model.Ref(0), model.List(), model.String("mixed")},
		{model.Null(), model.Bool(true), model.Int(math.MaxInt64), model.Float(math.Inf(1)), model.String("γ"), model.Time(ts.Add(time.Hour)),
			model.Bytes([]byte{0, 0xff}), model.Ref(math.MaxUint64), model.List(model.List(model.Float(-1)), model.Null()), model.Bytes([]byte("m"))},
		{model.Null(), model.Bool(false), model.Int(-1), model.Float(2.5), model.String("alpha"), model.Time(ts),
			model.Bytes(nil), model.Ref(9), model.List(model.Time(ts)), model.Null()},
	}
}

// randomBatch draws engine rows: each column of one kind with nulls (a
// homogeneous lane when the draw leaves no null), of mixed kinds, or all
// null.
func randomBatch(rng *rand.Rand) [][]model.Value {
	var value func(k model.Kind, depth int) model.Value
	value = func(k model.Kind, depth int) model.Value {
		switch k {
		case model.KindBool:
			return model.Bool(rng.Intn(2) == 0)
		case model.KindInt:
			return model.Int([]int64{0, -1, math.MaxInt64, math.MinInt64, rng.Int63()}[rng.Intn(5)])
		case model.KindFloat:
			return model.Float([]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(-1), rng.NormFloat64()}[rng.Intn(5)])
		case model.KindString:
			return model.String([]string{"", "a", "\xff\xfe", strings.Repeat("s", rng.Intn(30))}[rng.Intn(4)])
		case model.KindTime:
			return model.Time(time.Unix(0, rng.Int63()-1<<62))
		case model.KindBytes:
			return model.Bytes([][]byte{{}, []byte("abc"), {0, 0xff}}[rng.Intn(3)])
		case model.KindRef:
			return model.Ref(model.EntityID(rng.Uint64()))
		case model.KindList:
			if depth > 0 {
				elems := make([]model.Value, rng.Intn(3))
				for i := range elems {
					elems[i] = value(model.Kind(rng.Intn(int(model.KindRef)+1)), depth-1)
				}
				return model.List(elems...)
			}
		}
		return model.Null()
	}
	width := 1 + rng.Intn(5)
	kinds := make([]int, width) // -1: mixed kinds
	nullShare := make([]int, width)
	for c := range kinds {
		kinds[c] = rng.Intn(int(model.KindRef)+2) - 1
		nullShare[c] = rng.Intn(3) // 0: no nulls
	}
	rows := make([][]model.Value, 1+rng.Intn(30))
	for i := range rows {
		rows[i] = make([]model.Value, width)
		for c := range rows[i] {
			k := model.Kind(kinds[c])
			if kinds[c] < 0 {
				k = model.Kind(rng.Intn(int(model.KindRef) + 1))
			}
			if nullShare[c] == 0 || rng.Intn(4) > 0 {
				rows[i][c] = value(k, 2)
			}
		}
	}
	return rows
}

// encodedPayload is batch's row-batch frame payload.
func encodedPayload(batch [][]model.Value) []byte {
	e := GetV2Enc()
	defer e.Release()
	frame := EncodeV2RowBatch(e, 1, batch)
	return append([]byte(nil), frame[4+v2FrameFixed:]...)
}

// TestDecodeRowBatchMatchesOracle: over a batch with a column of every
// kind and randomized batches, and every truncation and byte flip of some
// of them, the value decoder plus scdb.FromRows and the per-cell oracle
// agree.
func TestDecodeRowBatchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 500; iter++ {
		batch := randomBatch(rng)
		if iter == 0 {
			batch = everyKindBatch()
		}
		payload := encodedPayload(batch)
		checkDecodeAgainstOracle(t, payload)
		if iter%25 != 0 {
			continue
		}
		for n := range payload {
			checkDecodeAgainstOracle(t, payload[:n])
			mut := append([]byte(nil), payload...)
			mut[n] ^= byte(1 + rng.Intn(255))
			checkDecodeAgainstOracle(t, mut)
		}
	}
}

// FuzzDecodeV2RowBatch runs arbitrary payloads, seeded with encoded
// batches of every kind, through the value decoder plus scdb.FromRows and
// the per-cell oracle.
func FuzzDecodeV2RowBatch(f *testing.F) {
	f.Add(encodedPayload(everyKindBatch()))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		f.Add(encodedPayload(randomBatch(rng)))
	}
	f.Add([]byte{0, 2, 3, v2kBytes, 1, 'a', 0, 2, 'b', 'c', v2kNull, 0xEE})
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecodeAgainstOracle(t, payload)
	})
}

// TestDecodeRowBatchCellsAreIndependent: the rows of a batch share one
// backing array and a bytes column one buffer, yet appending to a row or
// writing into a bytes cell never shows through in a neighbour.
func TestDecodeRowBatchCellsAreIndependent(t *testing.T) {
	rows, err := DecodeV2RowBatch(encodedPayload([][]model.Value{
		{model.Bytes([]byte("ab")), model.Int(1)},
		{model.Bytes([]byte("cd")), model.Int(2)},
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	rows[0] = append(rows[0], "extra")
	b := rows[0][0].([]byte)
	b[0] = 'x'
	b = append(b, 'z')
	if string(rows[1][0].([]byte)) != "cd" || rows[1][1].(int64) != 2 || len(rows[1]) != 2 {
		t.Errorf("row 1 reads %v after row 0 was written to", rows[1])
	}
}

// TestDecodeRowBatchAllocations: a 1024-row, 5-column batch costs a few
// objects per column and per frame, not one per cell, and the value
// decoder into a reader's scratch costs the frame's table string alone.
func TestDecodeRowBatchAllocations(t *testing.T) {
	const n, cols = 1024, 5
	batch := make([][]model.Value, n)
	for i := range batch {
		batch[i] = []model.Value{
			model.String(fmt.Sprintf("name %d", i%300)), model.Int(int64(i) << 20),
			model.Float(float64(i) / 3), model.Time(time.Unix(int64(i), 0)), model.Ref(model.EntityID(i)),
		}
	}
	payload := encodedPayload(batch)
	if rows, err := DecodeV2RowBatch(payload, nil); err != nil || len(rows) != n {
		t.Fatalf("decode: %d rows, %v", len(rows), err)
	}
	if a := testing.AllocsPerRun(20, func() { DecodeV2RowBatch(payload, nil) }); a > 4+2*cols {
		t.Errorf("DecodeV2RowBatch of %d×%d: %.0f allocations, want at most %d", n, cols, a, 4+2*cols)
	}
	var b V2ReadBuf
	rows, vals, err := b.DecodeRows(payload, nil, nil)
	if err != nil || len(rows) != n {
		t.Fatalf("decode values: %d rows, %v", len(rows), err)
	}
	if a := testing.AllocsPerRun(20, func() { rows, vals, _ = b.DecodeRows(payload, rows[:0], vals[:0]) }); a > 1 {
		t.Errorf("DecodeRows of %d×%d into a reused scratch: %.0f allocations, want 1 (the table string)", n, cols, a)
	}
}

// TestInternTableIsOneString: a frame's intern-table entries are
// substrings of one string, parsed into a reader's scratch when it has
// room, and the table parses as it always did. It costs the string alone
// (go1.24/linux/amd64); at commit 0dc12f0 every frame made its table too.
func TestInternTableIsOneString(t *testing.T) {
	payload := binary.AppendUvarint(nil, 3)
	for _, s := range []string{"alpha", "", "γ"} {
		payload = binary.AppendUvarint(payload, uint64(len(s)))
		payload = append(payload, s...)
	}
	scratch := make([]string, 0, 3)
	if a := testing.AllocsPerRun(20, func() { newV2Dec(payload, scratch) }); a > 1 {
		t.Errorf("newV2Dec of a 3-entry table into a scratch: %.0f allocations, want at most 1 (the string; 2 at commit 0dc12f0, the table too)", a)
	}
	for _, tab := range [][]string{nil, scratch} {
		d, err := newV2Dec(payload, tab)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(d.tab, "|") != "alpha||γ" {
			t.Errorf("table %q", d.tab)
		}
	}
}
