// Package uncertain implements the possible-worlds representation of
// uncertain and incomplete data (paper Section 4.2, FS.3 and FS.10): a
// conditional table (c-table) in which each tuple carries a condition over
// discrete random variables, a discrete probability space of possible
// worlds P = (W, P), and marked nulls whose valuation v(t_i) is itself a
// random variable. A query runs on each world's complete instance and is
// answered by the total probability of the worlds where it holds, exactly
// by enumeration or estimated from sampled worlds; Answers gives each
// distinct answer value its probability.
//
// The one formalism carries the "isolated forms of uncertainty" FS.3
// complains about: probabilistic tuples (a condition on a weighted
// variable), fuzzy confidences (a degree lifted to a Bernoulli variable),
// and incompleteness (marked nulls with weighted candidate valuations).
// fusion.Worlds.ToCTable builds one from parallel worlds, and SCQL's
// worlds(entity, attr) lays it out.
package uncertain

// Var names a discrete random variable in the probability space.
type Var string

// Assignment maps each variable to the index of its chosen alternative; a
// total assignment identifies one possible world.
type Assignment map[Var]int

// Cond is a condition over variables — the c_i attached to tuple t_i in
// the c-table formalism: always true, or one variable's alternative. The
// zero value is not valid; use the constructors.
type Cond struct {
	always bool
	v      Var
	val    int
}

// True returns the always-true condition (tuples certain to exist).
func True() *Cond { return &Cond{always: true} }

// Eq returns the atomic condition v = val.
func Eq(v Var, val int) *Cond { return &Cond{v: v, val: val} }

// Eval evaluates the condition under a (total) assignment. Variables absent
// from the assignment default to alternative 0.
func (c *Cond) Eval(a Assignment) bool { return c.always || a[c.v] == c.val }
