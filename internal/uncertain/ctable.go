package uncertain

import (
	"fmt"
	"math/rand"
	"sort"

	"scdb/internal/model"
)

// CTuple is one conditioned tuple t_i with condition c_i: the tuple exists
// in exactly the worlds where the condition holds. Attributes may hold
// marked nulls: NullVars maps an attribute name to the variable whose
// chosen alternative values it in each world (the valuation v(t_i)).
type CTuple struct {
	Rec      model.Record
	Cond     *Cond
	NullVars map[string]Var
}

// instantiate produces the tuple's complete record in the given world, or
// nil if the condition fails there.
func (t CTuple) instantiate(s *Space, a Assignment) model.Record {
	if !t.Cond.Eval(a) {
		return nil
	}
	if len(t.NullVars) == 0 {
		return t.Rec
	}
	rec := t.Rec.Clone()
	for attr, v := range t.NullVars {
		rec[attr] = s.ValueOf(v, a[v])
	}
	return rec
}

// CTable is a conditional table: a set of conditioned tuples over one
// probability space. It is the expressive representational model the paper
// cites [10] and asks to extend (FS.10).
type CTable struct {
	Name   string
	Space  *Space
	Tuples []CTuple
}

// NewCTable creates an empty c-table with its own probability space.
func NewCTable(name string) *CTable {
	return &CTable{Name: name, Space: NewSpace()}
}

// AddConditioned appends a tuple guarded by an explicit condition over
// already-declared variables.
func (c *CTable) AddConditioned(rec model.Record, cond *Cond) {
	c.Tuples = append(c.Tuples, CTuple{Rec: rec, Cond: cond})
}

// AddProbabilistic appends a tuple that exists with probability p,
// independently of everything else: the "fuzzy/probabilistic tuple" path
// that lifts a soft-source confidence into the unified formalism (FS.3).
// It declares a fresh Bernoulli variable and returns it.
func (c *CTable) AddProbabilistic(rec model.Record, p float64) (Var, error) {
	v := Var(fmt.Sprintf("t%d", len(c.Tuples)))
	if err := c.Space.AddBool(v, p); err != nil {
		return "", err
	}
	c.Tuples = append(c.Tuples, CTuple{Rec: rec, Cond: Eq(v, 1)})
	return v, nil
}

// AddWithNull appends a certain tuple in which attribute attr is a marked
// null with the given candidate values and probabilities. It returns the
// null's valuation variable. A uniform distribution expresses pure
// incompleteness; a skewed one expresses a statistical prior.
func (c *CTable) AddWithNull(rec model.Record, attr string, cands []model.Value, probs []float64) (Var, error) {
	v := Var(fmt.Sprintf("n%d_%s", len(c.Tuples), attr))
	if err := c.Space.AddValueChoice(v, cands, probs); err != nil {
		return "", err
	}
	rec = rec.Clone()
	rec[attr] = model.Null()
	c.Tuples = append(c.Tuples, CTuple{Rec: rec, Cond: True(), NullVars: map[string]Var{attr: v}})
	return v, nil
}

// Instantiate returns the complete database instance I for one world.
func (c *CTable) Instantiate(a Assignment) []model.Record {
	var out []model.Record
	for _, t := range c.Tuples {
		if rec := t.instantiate(c.Space, a); rec != nil {
			out = append(out, rec)
		}
	}
	return out
}

// QueryProb returns the exact probability that the boolean query holds,
// evaluated per world on the complete instance.
func (c *CTable) QueryProb(q func([]model.Record) bool) float64 {
	total := 0.0
	c.Space.EnumWorlds(func(a Assignment, p float64) bool {
		if q(c.Instantiate(a)) {
			total += p
		}
		return true
	})
	return total
}

// QueryProbSampled estimates QueryProb from n Monte-Carlo worlds.
func (c *CTable) QueryProbSampled(q func([]model.Record) bool, n int, seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	hit := 0
	for i := 0; i < n; i++ {
		if q(c.Instantiate(c.Space.SampleWorld(r))) {
			hit++
		}
	}
	return float64(hit) / float64(n)
}

// Answer is one distinct query answer with its total probability.
type Answer struct {
	Value model.Value
	Prob  float64
}

// Answers evaluates a value-producing query in every world and aggregates
// the probability of each distinct answer. Answers are sorted by
// descending probability, then by value order, so output is deterministic.
func (c *CTable) Answers(q func([]model.Record) []model.Value) []Answer {
	type acc struct {
		v model.Value
		p float64
	}
	byHash := map[uint64]*acc{}
	c.Space.EnumWorlds(func(a Assignment, p float64) bool {
		seen := map[uint64]bool{}
		for _, v := range q(c.Instantiate(a)) {
			h := v.Hash()
			if seen[h] {
				continue
			}
			seen[h] = true
			if e, ok := byHash[h]; ok {
				e.p += p
			} else {
				byHash[h] = &acc{v: v, p: p}
			}
		}
		return true
	})
	out := make([]Answer, 0, len(byHash))
	for _, e := range byHash {
		out = append(out, Answer{Value: e.v, Prob: e.p})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return model.Less(out[i].Value, out[j].Value)
	})
	return out
}
