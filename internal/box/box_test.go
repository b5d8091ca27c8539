package box_test

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"scdb/internal/box"
)

// ref stands in for a named integer cell type such as scdb.EntityRef.
type ref uint64

// kindOf names x's dynamic type through a type switch.
func kindOf(x any) string {
	switch x.(type) {
	case nil:
		return "nil"
	case string:
		return "string"
	case int64:
		return "int64"
	case float64:
		return "float64"
	case ref:
		return "ref"
	case []byte:
		return "bytes"
	case time.Time:
		return "time"
	}
	return "other"
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// checkLikeOrdinary boxes vals in one slab and checks each cell against
// any(v): type switch, ==, map key, reflect.DeepEqual, fmt and JSON.
func checkLikeOrdinary[T box.Cell](t *testing.T, vals []T) {
	t.Helper()
	s := box.New[T](len(vals))
	got := make([]any, len(vals))
	for i, v := range vals {
		got[i] = s.Add(v)
	}
	for i, v := range vals {
		g, want := got[i], any(v)
		if kindOf(g) != kindOf(want) || reflect.TypeOf(g) != reflect.TypeOf(want) {
			t.Errorf("cell %d: type %T (%s), want %T (%s)", i, g, kindOf(g), want, kindOf(want))
		}
		if _, ok := g.(T); !ok {
			t.Errorf("cell %d: assertion to %T fails", i, v)
		}
		if reflect.DeepEqual(g, want) != reflect.DeepEqual(want, any(v)) {
			t.Errorf("cell %d: DeepEqual disagrees with ordinary boxing for %#v", i, want)
		}
		for _, verb := range []string{"%v", "%#v", "%T"} {
			if a, b := fmt.Sprintf(verb, g), fmt.Sprintf(verb, want); a != b {
				t.Errorf("cell %d: %s gives %q, want %q", i, verb, a, b)
			}
		}
		ja, ea := json.Marshal(g)
		jb, eb := json.Marshal(want)
		if string(ja) != string(jb) || (ea == nil) != (eb == nil) {
			t.Errorf("cell %d: json %s (%v), want %s (%v)", i, ja, ea, jb, eb)
		}
		if !reflect.TypeOf(want).Comparable() {
			// Slices: == and map keys panic on both sides alike.
			if !panics(func() { _ = g == want }) || !panics(func() { _ = map[any]bool{g: true} }) {
				t.Errorf("cell %d: comparing an uncomparable cell must panic", i)
			}
			continue
		}
		if (g == want) != (want == any(v)) || (g != want) != (want != any(v)) {
			t.Errorf("cell %d: == disagrees with ordinary boxing for %#v", i, want)
		}
		m := map[any]int{g: i}
		_, hitG := m[want]
		_, hitW := map[any]int{want: i}[any(v)]
		if hitG != hitW {
			t.Errorf("cell %d: map key lookup %v, ordinary %v for %#v", i, hitG, hitW, want)
		}
	}
	for i := 1; i < len(vals); i++ {
		if reflect.TypeOf(got[i]).Comparable() && (got[i] == got[i-1]) != (any(vals[i]) == any(vals[i-1])) {
			t.Errorf("cells %d and %d: == across cells disagrees with ordinary boxing", i-1, i)
		}
	}
}

func TestSlabCellsAreOrdinaryValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	checkLikeOrdinary(t, []string{"", "a", "a", strings.Repeat("long ", 40), "\xff\xfe invalid utf-8", "ünïcode"})
	checkLikeOrdinary(t, []int64{0, 1, 1, 255, 256, -1, math.MaxInt64, math.MinInt64})
	checkLikeOrdinary(t, []float64{0, negZero, 1.5, 1.5, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64})
	checkLikeOrdinary(t, []ref{0, 7, 7, math.MaxUint64})
	checkLikeOrdinary(t, [][]byte{nil, {}, []byte("abc"), {0, 0xff}})
	loc := time.FixedZone("X", 3600)
	now := time.Now()
	checkLikeOrdinary(t, []time.Time{{}, time.Unix(0, 123).UTC(), time.Unix(0, 123).UTC(), time.Unix(5, 0).In(loc), now, now.Round(0)})
}

// TestSlabSurvivesGC: a kept cell keeps its slab, and what the slab
// references, alive after every other cell is dropped.
func TestSlabSurvivesGC(t *testing.T) {
	const n = 4096
	strs, times, bytes := box.New[string](n), box.New[time.Time](n), box.New[[]byte](n)
	loc := time.FixedZone("GC", -7200)
	var keepS, keepT, keepB any
	for i := 0; i < n; i++ {
		s := strings.Repeat(strconv.Itoa(i), 8) // a heap string per cell
		cs := strs.Add(s)
		ct := times.Add(time.Unix(int64(i), 0).In(loc))
		cb := bytes.Add([]byte(s))
		if i == n/2 {
			keepS, keepT, keepB = cs, ct, cb
		}
	}
	strs, times, bytes = box.Slab[string]{}, box.Slab[time.Time]{}, box.Slab[[]byte]{}
	runtime.GC()
	garbage := make([][]byte, 0, 1<<12)
	for i := 0; i < cap(garbage); i++ {
		garbage = append(garbage, []byte(strings.Repeat("z", 64)))
	}
	runtime.GC()
	want := strings.Repeat(strconv.Itoa(n/2), 8)
	if keepS.(string) != want || string(keepB.([]byte)) != want {
		t.Errorf("kept cells read %q and %q, want %q", keepS, keepB, want)
	}
	if tm := keepT.(time.Time); tm.Unix() != n/2 || tm.Location().String() != "GC" {
		t.Errorf("kept time reads %v", tm)
	}
	runtime.KeepAlive(garbage)
}

// TestSlabGrowthKeepsCells: adding past the capacity New was given moves
// later cells to a new array and leaves earlier ones as they were.
func TestSlabGrowthKeepsCells(t *testing.T) {
	s := box.New[int64](1)
	var got []any
	for i := int64(0); i < 100; i++ {
		got = append(got, s.Add(i*1000))
	}
	for i, g := range got {
		if g.(int64) != int64(i)*1000 {
			t.Fatalf("cell %d reads %v", i, g)
		}
	}
}

// TestSlabAllocations: a slab costs its array, whatever it holds, plus
// for a time.Time the one box New makes to learn the type word (a zero
// string or number boxes without allocating).
func TestSlabAllocations(t *testing.T) {
	const n = 1024
	check := func(name string, f func()) {
		want := 1.0
		if name == "time" {
			want = 2
		}
		if a := testing.AllocsPerRun(20, f); a > want {
			t.Errorf("%s: %.0f allocations for %d cells, want %.0f", name, a, n, want)
		}
	}
	check("string", func() {
		s := box.New[string](n)
		for i := 0; i < n; i++ {
			_ = s.Add("some string")
		}
	})
	check("int64", func() {
		s := box.New[int64](n)
		for i := 0; i < n; i++ {
			_ = s.Add(int64(i) << 20)
		}
	})
	check("time", func() {
		s := box.New[time.Time](n)
		for i := 0; i < n; i++ {
			_ = s.Add(time.Unix(int64(i), 0))
		}
	})
}
