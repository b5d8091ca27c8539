package uncertain

import (
	"fmt"
	"math/rand"

	"scdb/internal/model"
)

// Space is the discrete probability space P = (W, P): a set of independent
// discrete variables whose joint assignments are the possible worlds W and
// whose per-alternative probabilities define the probability model P, with
// P(I_i) >= 0 and Σ P(I_i) = 1 by construction.
type Space struct {
	vars  []Var
	probs map[Var][]float64
	vals  map[Var][]model.Value // candidate valuations for null-filling vars
}

// NewSpace creates an empty probability space. With no variables there is
// exactly one world (the certain database).
func NewSpace() *Space {
	return &Space{probs: make(map[Var][]float64), vals: make(map[Var][]model.Value)}
}

// AddBool declares a Bernoulli variable: alternative 1 with probability
// pTrue, alternative 0 otherwise. Eq(v, 1) is "the event happened".
func (s *Space) AddBool(v Var, pTrue float64) error {
	return s.AddChoice(v, []float64{1 - pTrue, pTrue})
}

// AddChoice declares a discrete variable with one alternative per given
// probability. Probabilities must be non-negative and sum to 1 (within
// 1e-9).
func (s *Space) AddChoice(v Var, probs []float64) error {
	if _, dup := s.probs[v]; dup {
		return fmt.Errorf("uncertain: variable %q already declared", v)
	}
	if len(probs) == 0 {
		return fmt.Errorf("uncertain: variable %q has no alternatives", v)
	}
	sum := 0.0
	for _, p := range probs {
		if p < 0 {
			return fmt.Errorf("uncertain: variable %q has negative probability", v)
		}
		sum += p
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		return fmt.Errorf("uncertain: variable %q probabilities sum to %g, want 1", v, sum)
	}
	s.vars = append(s.vars, v)
	s.probs[v] = append([]float64(nil), probs...)
	return nil
}

// AddValueChoice declares a variable that values a marked null: alternative
// i stands for the null taking value vals[i]. This is the valuation v(t_i)
// of the extended c-table semantics.
func (s *Space) AddValueChoice(v Var, vals []model.Value, probs []float64) error {
	if len(vals) != len(probs) {
		return fmt.Errorf("uncertain: variable %q: %d values but %d probabilities", v, len(vals), len(probs))
	}
	if err := s.AddChoice(v, probs); err != nil {
		return err
	}
	s.vals[v] = append([]model.Value(nil), vals...)
	return nil
}

// ValueOf returns the value alternative alt stands for, when v is a
// null-valuation variable; otherwise it returns null.
func (s *Space) ValueOf(v Var, alt int) model.Value {
	vals, ok := s.vals[v]
	if !ok || alt < 0 || alt >= len(vals) {
		return model.Null()
	}
	return vals[alt]
}

// NumWorlds returns the number of possible worlds (the product of domain
// sizes). It saturates at MaxInt to avoid overflow on large spaces.
func (s *Space) NumWorlds() int {
	n := 1
	for _, v := range s.vars {
		d := len(s.probs[v])
		if n > (1<<62)/d {
			return 1 << 62
		}
		n *= d
	}
	return n
}

// EnumWorlds enumerates every possible world with its probability. The
// callback returns false to stop. Worlds with probability 0 are skipped.
// The assignment passed to the callback is reused; copy it if retained.
func (s *Space) EnumWorlds(fn func(Assignment, float64) bool) {
	a := make(Assignment, len(s.vars))
	var rec func(i int, p float64) bool
	rec = func(i int, p float64) bool {
		if i == len(s.vars) {
			return fn(a, p)
		}
		v := s.vars[i]
		for alt, ap := range s.probs[v] {
			if ap == 0 {
				continue
			}
			a[v] = alt
			if !rec(i+1, p*ap) {
				return false
			}
		}
		return true
	}
	rec(0, 1)
}

// SampleWorld draws one world from the joint distribution.
func (s *Space) SampleWorld(r *rand.Rand) Assignment {
	a := make(Assignment, len(s.vars))
	for _, v := range s.vars {
		x := r.Float64()
		acc := 0.0
		alt := 0
		for i, p := range s.probs[v] {
			acc += p
			if x < acc {
				alt = i
				break
			}
			alt = i
		}
		a[v] = alt
	}
	return a
}
