package model

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTruthTables(t *testing.T) {
	// Kleene three-valued truth tables.
	and := map[[2]Truth]Truth{
		{False, False}: False, {False, Unknown}: False, {False, True}: False,
		{Unknown, False}: False, {Unknown, Unknown}: Unknown, {Unknown, True}: Unknown,
		{True, False}: False, {True, Unknown}: Unknown, {True, True}: True,
	}
	or := map[[2]Truth]Truth{
		{False, False}: False, {False, Unknown}: Unknown, {False, True}: True,
		{Unknown, False}: Unknown, {Unknown, Unknown}: Unknown, {Unknown, True}: True,
		{True, False}: True, {True, Unknown}: True, {True, True}: True,
	}
	for args, want := range and {
		if got := args[0].And(args[1]); got != want {
			t.Errorf("%v AND %v = %v, want %v", args[0], args[1], got, want)
		}
	}
	for args, want := range or {
		if got := args[0].Or(args[1]); got != want {
			t.Errorf("%v OR %v = %v, want %v", args[0], args[1], got, want)
		}
	}
	if False.Not() != True || True.Not() != False || Unknown.Not() != Unknown {
		t.Error("Not broken")
	}
}

func TestTruthHelpers(t *testing.T) {
	if TruthOf(true) != True || TruthOf(false) != False {
		t.Error("TruthOf broken")
	}
	if !True.Bool() || Unknown.Bool() || False.Bool() {
		t.Error("Bool collapse broken: only True selects")
	}
	if False.String() != "false" || Unknown.String() != "unknown" || True.String() != "true" {
		t.Error("String broken")
	}
}

func TestFuzzyOps(t *testing.T) {
	a, b := Fuzzy(0.3), Fuzzy(0.8)
	if a.And(b) != 0.3 || a.Or(b) != 0.8 {
		t.Error("Gödel norms broken")
	}
	if got := a.Not(); got != 0.7 {
		t.Errorf("Not(0.3) = %v", got)
	}
	if Fuzzy(-0.5).Clamp() != 0 || Fuzzy(1.5).Clamp() != 1 || Fuzzy(0.4).Clamp() != 0.4 {
		t.Error("Clamp broken")
	}
	if !b.AtLeast(0.8) || a.AtLeast(0.31) {
		t.Error("AtLeast broken")
	}
	if Fuzzy(0).Truth() != False || Fuzzy(1).Truth() != True || Fuzzy(0.5).Truth() != Unknown {
		t.Error("Truth cut broken")
	}
}

func TestCloseness(t *testing.T) {
	// The paper's Warfarin example: 5.1 mg is "close" to 5.0 given the
	// narrow therapeutic range; 3.4 and 6.1 are not.
	tol := 0.5
	if got := Closeness(5.1, 5.0, tol); got < 0.79 || got > 0.81 {
		t.Errorf("Closeness(5.1, 5.0, 0.5) = %v, want 0.8", got)
	}
	if got := Closeness(3.4, 5.0, tol); got != 0 {
		t.Errorf("Closeness(3.4, 5.0) = %v, want 0", got)
	}
	if got := Closeness(5.0, 5.0, tol); got != 1 {
		t.Errorf("exact match = %v, want 1", got)
	}
	if got := Closeness(5.0, 5.0, 0); got != 1 {
		t.Errorf("zero tol exact = %v", got)
	}
	if got := Closeness(5.1, 5.0, 0); got != 0 {
		t.Errorf("zero tol inexact = %v", got)
	}
	if got := Closeness(4.9, 5.0, tol); got < 0.79 || got > 0.81 {
		t.Errorf("Closeness symmetric: got %v", got)
	}
}

func TestPropertyTruthDeMorgan(t *testing.T) {
	f := func(x, y uint8) bool {
		a, b := Truth(x%3), Truth(y%3)
		return a.And(b).Not() == a.Not().Or(b.Not()) &&
			a.Or(b).Not() == a.Not().And(b.Not())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyFuzzyBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := Fuzzy(r.Float64())
		b := Fuzzy(r.Float64())
		for _, v := range []Fuzzy{a.And(b), a.Or(b), a.Not()} {
			if v < 0 || v > 1 {
				return false
			}
		}
		// t-norm <= both operands <= s-norm
		return a.And(b) <= a && a.And(b) <= b && a.Or(b) >= a && a.Or(b) >= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyClosenessBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		got := r.NormFloat64() * 10
		want := r.NormFloat64() * 10
		tol := r.Float64() * 5
		c := Closeness(got, want, tol)
		if c < 0 || c > 1 {
			return false
		}
		// Symmetry in the deviation (approximate: mirroring the deviation
		// is subject to float rounding).
		d := float64(Closeness(want+(want-got), want, tol) - c)
		if d < 0 {
			d = -d
		}
		return d < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
