// Package refine implements the context-aware query model of Section 4.1:
// given a query and its context, the database automatically raises refined
// queries that discover the information needed for a justified answer
// (FS.6), and completes partially specified queries from examples (FS.7,
// query-by-example).
//
// The paper's scenario drives the design: asked "what is an effective
// dosage of Warfarin?", the system should itself pose "Is Warfarin
// sensitive to ethnic background?", "What are the disjoint classes of
// population with respect to Warfarin?", and "Does Warfarin have a narrow
// therapeutic range?" — each of which is generated here from the ontology's
// disjointness structure and the claim distribution, then used to turn a
// naively-false certain answer into a justified parallel-world answer.
package refine

import (
	"fmt"
	"math/rand"
	"sort"

	"scdb/internal/fusion"
	"scdb/internal/graph"
	"scdb/internal/model"
	"scdb/internal/ontology"
)

// Kind classifies a generated refinement.
type Kind int

const (
	// KindSensitivity asks whether the queried attribute varies across a
	// disjoint partition ("Is Warfarin sensitive to ethnic background?").
	KindSensitivity Kind = iota
	// KindDrillDown scopes the original query to one partition class
	// ("What is the effective dose within Asian populations?").
	KindDrillDown
	// KindRangeProbe asks whether the attribute's claimed values span a
	// narrow range ("Does Warfarin have a narrow therapeutic range?").
	KindRangeProbe
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSensitivity:
		return "sensitivity"
	case KindDrillDown:
		return "drill-down"
	case KindRangeProbe:
		return "range-probe"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Refinement is one automatically raised follow-up query.
type Refinement struct {
	Kind     Kind
	Question string   // human-readable formulation
	Context  []string // concepts the refinement is scoped to
}

// Refiner generates refinements from the ontology, the relation graph, and
// the claim base.
type Refiner struct {
	onto   *ontology.Ontology
	graph  *graph.Graph
	worlds *fusion.Worlds
}

// New creates a refiner. graph may be nil if discovery walks are not
// needed; worlds may be nil if no claim base exists.
func New(o *ontology.Ontology, g *graph.Graph, w *fusion.Worlds) *Refiner {
	return &Refiner{onto: o, graph: g, worlds: w}
}

// Refine generates the follow-up queries for "what is the value of attr
// for entity?" given the current claims.
func (r *Refiner) Refine(entity model.EntityID, attr string) []Refinement {
	var out []Refinement
	if r.worlds == nil {
		return nil
	}
	claims := r.worlds.ClaimsAbout(entity, attr)
	if len(claims) == 0 {
		return nil
	}

	// Collect the contexts the claims mention and find the partition
	// parents: concepts whose disjoint children cover the claim contexts.
	ctxConcepts := map[string]bool{}
	for _, c := range claims {
		for _, ctx := range c.Context {
			ctxConcepts[ctx] = true
		}
	}
	parents := map[string][]string{}
	for ctx := range ctxConcepts {
		for _, p := range r.onto.Ancestors(ctx) {
			if part := r.onto.DisjointPartition(p); part != nil {
				parents[p] = part
			}
		}
	}

	// Distinct claimed values?
	distinct := map[uint64]bool{}
	var numeric []float64
	for _, c := range claims {
		distinct[c.Value.Hash()] = true
		if f, ok := c.Value.AsFloat(); ok {
			numeric = append(numeric, f)
		}
	}

	parentNames := make([]string, 0, len(parents))
	for p := range parents {
		parentNames = append(parentNames, p)
	}
	sort.Strings(parentNames)
	for _, p := range parentNames {
		if len(distinct) > 1 {
			out = append(out, Refinement{
				Kind:     KindSensitivity,
				Question: fmt.Sprintf("Is %s sensitive to %s?", attr, p),
				Context:  []string{p},
			})
		}
		for _, class := range parents[p] {
			out = append(out, Refinement{
				Kind:     KindDrillDown,
				Question: fmt.Sprintf("What is %s within the %s class?", attr, class),
				Context:  []string{class},
			})
		}
	}
	if len(numeric) >= 2 && len(distinct) > 1 {
		out = append(out, Refinement{
			Kind:     KindRangeProbe,
			Question: fmt.Sprintf("Does %s have a narrow range?", attr),
		})
	}
	return out
}

// Sensitive reports whether the attribute's claims take different values
// across disjoint context classes — the evaluated answer to a
// KindSensitivity refinement.
func (r *Refiner) Sensitive(entity model.EntityID, attr string) bool {
	if r.worlds == nil {
		return false
	}
	for _, cf := range r.worlds.Conflicts() {
		if cf.Entity == entity && cf.Attr == attr && cf.Reconcilable {
			return true
		}
	}
	return false
}

// NarrowRange reports whether the attribute's numeric claims span a
// relative range below ratio (e.g. 0.5 means max-min is less than 50% of
// the mean) — the evaluated answer to a KindRangeProbe refinement, and the
// paper's "Warfarin has a very narrow therapeutic range".
func (r *Refiner) NarrowRange(entity model.EntityID, attr string, ratio float64) bool {
	if r.worlds == nil {
		return false
	}
	var vals []float64
	for _, c := range r.worlds.ClaimsAbout(entity, attr) {
		if f, ok := c.Value.AsFloat(); ok {
			vals = append(vals, f)
		}
	}
	if len(vals) < 2 {
		return false
	}
	lo, hi, sum := vals[0], vals[0], 0.0
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		sum += v
	}
	mean := sum / float64(len(vals))
	if mean == 0 {
		return false
	}
	return (hi-lo)/mean < ratio
}

// RandomWalk performs FS.6's "discovery and refinement process as a random
// walk problem": a seeded walk from the query's seed entity, biased toward
// unvisited neighbors, returning the entities discovered in first-visit
// order. Deterministic for a given rngSeed.
func (r *Refiner) RandomWalk(seed model.EntityID, steps int, rngSeed int64) []model.EntityID {
	if r.graph == nil {
		return nil
	}
	rng := rand.New(rand.NewSource(rngSeed))
	cur := r.graph.Resolve(seed)
	if _, ok := r.graph.Entity(cur); !ok {
		return nil
	}
	visited := map[model.EntityID]bool{cur: true}
	var order []model.EntityID
	for i := 0; i < steps; i++ {
		nbs := r.graph.Neighbors(cur, "")
		if len(nbs) == 0 {
			// Restart at the seed when stuck at a sink.
			cur = r.graph.Resolve(seed)
			continue
		}
		// Prefer unvisited neighbors (discovery bias).
		var fresh []model.EntityID
		for _, nb := range nbs {
			if !visited[nb] {
				fresh = append(fresh, nb)
			}
		}
		pick := nbs[rng.Intn(len(nbs))]
		if len(fresh) > 0 {
			pick = fresh[rng.Intn(len(fresh))]
		}
		if !visited[pick] {
			visited[pick] = true
			order = append(order, pick)
		}
		cur = pick
	}
	return order
}

// ContextAnswer is the outcome of the full refinement loop.
type ContextAnswer struct {
	// NaiveCertain is what the classical semantics answered.
	NaiveCertain bool
	// Justified is the parallel-world result after refinement.
	Justified fusion.Justification
	// Refinements lists the queries the system raised on its own.
	Refinements []Refinement
	// Sensitive and NarrowRange are the evaluated probe answers.
	Sensitive   bool
	NarrowRange bool
}

// AnswerWithRefinement runs the paper's full loop for "is target an
// effective value of attr?": evaluate naively, raise refinements, evaluate
// the probes, and compute the justified parallel-world answer with the
// fuzzy closeness predicate. This is the E-FS6 measurement path: coverage
// with refinement versus the naive baseline.
func (r *Refiner) AnswerWithRefinement(entity model.EntityID, attr string, target, tol float64) ContextAnswer {
	pred := func(v model.Value) model.Fuzzy {
		f, ok := v.AsFloat()
		if !ok {
			return 0
		}
		return model.Closeness(f, target, tol)
	}
	ans := ContextAnswer{}
	if r.worlds == nil {
		return ans
	}
	ans.NaiveCertain = r.worlds.NaiveCertain(entity, attr, func(v model.Value) bool { return pred(v) > 0 })
	ans.Refinements = r.Refine(entity, attr)
	ans.Sensitive = r.Sensitive(entity, attr)
	ans.NarrowRange = r.NarrowRange(entity, attr, 0.5)
	ans.Justified = r.worlds.Justified(entity, attr, pred)
	return ans
}
