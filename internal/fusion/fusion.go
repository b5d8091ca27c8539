// Package fusion implements the paper's parallel-world semantics (Section
// 4.2, FS.9/FS.10): query answering over multiple *actual* worlds —
// independent sources that are each internally consistent and certain, yet
// contradictory when naively combined because each reports facts relative
// to its own premise (demographics, locale, methodology).
//
// The paper's worked example is reproduced exactly: three clinical sources
// report effective Warfarin doses of 5.1, 3.4, and 6.1 mg because their
// populations belong to disjoint ethnic classes. A naive certain-answer
// evaluation of "is 5.0 mg effective?" returns false (not all worlds
// agree); the parallel-world evaluation recognizes — using the ontology's
// disjointness axioms — that the claims live in disjoint context classes,
// and returns a *justified* answer: yes, to fuzzy degree Closeness(5.1,
// 5.0) within the class the claim is about, with the supporting claims as
// evidence.
package fusion

import (
	"fmt"
	"sort"
	"strings"

	"scdb/internal/model"
	"scdb/internal/ontology"
	"scdb/internal/uncertain"
)

// Claim is one source's statement about an attribute of a resolved entity,
// relative to the source's premise. Context names the semantic-layer
// concepts the claim is scoped to (for the Warfarin example, the population
// class the source's trials drew from); an empty context means the claim is
// offered unconditionally.
type Claim struct {
	Source     string
	Entity     model.EntityID
	Attr       string
	Value      model.Value
	Context    []string
	Confidence model.Fuzzy
}

// Worlds is a set of parallel worlds: claims grouped by source, interpreted
// against an ontology that knows which contexts are disjoint.
type Worlds struct {
	onto     *ontology.Ontology
	claims   []Claim
	richness map[string]float64
}

// New creates an empty set of parallel worlds over the given ontology.
func New(o *ontology.Ontology) *Worlds {
	return &Worlds{onto: o, richness: make(map[string]float64)}
}

// AddClaim records one claim. Claims with zero confidence default to 1
// (sources are internally certain; uncertainty arises from combination).
func (w *Worlds) AddClaim(c Claim) {
	if c.Confidence == 0 {
		c.Confidence = 1
	}
	w.claims = append(w.claims, c)
}

// SetRichness records the richness score of a source (see the richness
// package); it weighs the source's claims in resolution and justification.
// Sources without a score default to weight 1.
func (w *Worlds) SetRichness(source string, score float64) {
	w.richness[source] = score
}

func (w *Worlds) weight(source string) float64 {
	if s, ok := w.richness[source]; ok {
		return s
	}
	return 1
}

// Claims returns every recorded claim in insertion order.
func (w *Worlds) Claims() []Claim { return w.claims }

// ClaimsAbout returns the claims about one attribute of one entity, in
// insertion order.
func (w *Worlds) ClaimsAbout(entity model.EntityID, attr string) []Claim {
	var out []Claim
	for _, c := range w.claims {
		if c.Entity == entity && c.Attr == attr {
			out = append(out, c)
		}
	}
	return out
}

// Conflict reports an (entity, attr) with at least two distinct claimed
// values.
type Conflict struct {
	Entity model.EntityID
	Attr   string
	Claims []Claim
	// Reconcilable is true when the conflicting claims live in pairwise
	// disjoint context classes: the "conflict" is an artifact of combining
	// parallel worlds without their premises, not a real contradiction.
	Reconcilable bool
}

// Conflicts returns every conflicting (entity, attr) group, ordered by
// entity then attribute.
func (w *Worlds) Conflicts() []Conflict {
	type key struct {
		e model.EntityID
		a string
	}
	groups := map[key][]Claim{}
	for _, c := range w.claims {
		k := key{c.Entity, c.Attr}
		groups[k] = append(groups[k], c)
	}
	var out []Conflict
	for k, cs := range groups {
		distinct := map[uint64]bool{}
		for _, c := range cs {
			distinct[c.Value.Hash()] = true
		}
		if len(distinct) < 2 {
			continue
		}
		out = append(out, Conflict{
			Entity:       k.e,
			Attr:         k.a,
			Claims:       cs,
			Reconcilable: w.pairwiseDisjointContexts(cs),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Entity != out[j].Entity {
			return out[i].Entity < out[j].Entity
		}
		return out[i].Attr < out[j].Attr
	})
	return out
}

// pairwiseDisjointContexts reports whether all claims with distinct values
// carry contexts that are pairwise disjoint under the ontology.
func (w *Worlds) pairwiseDisjointContexts(cs []Claim) bool {
	for i := 0; i < len(cs); i++ {
		for j := i + 1; j < len(cs); j++ {
			if model.Equal(cs[i].Value, cs[j].Value) {
				continue
			}
			if !w.contextsDisjoint(cs[i].Context, cs[j].Context) {
				return false
			}
		}
	}
	return len(cs) > 0
}

// contextsDisjoint reports whether some concept pair across the two
// contexts is declared disjoint.
func (w *Worlds) contextsDisjoint(a, b []string) bool {
	for _, ca := range a {
		for _, cb := range b {
			if w.onto.AreDisjoint(ca, cb) {
				return true
			}
		}
	}
	return false
}

// NaiveCertain evaluates the boolean query "does pred hold for this
// attribute?" under the classical certain-answer semantics that ignores
// context: true only if every claim satisfies the predicate. This is the
// baseline the paper says "may return false as the certain answer" for the
// Warfarin question.
func (w *Worlds) NaiveCertain(entity model.EntityID, attr string, pred func(model.Value) bool) bool {
	cs := w.ClaimsAbout(entity, attr)
	if len(cs) == 0 {
		return false
	}
	for _, c := range cs {
		if !pred(c.Value) {
			return false
		}
	}
	return true
}

// Justification is the evidence-based outcome of a parallel-world query:
// the overall justified degree, the per-context degrees, and the claims
// supporting the best context.
type Justification struct {
	// Degree is the fuzzy degree to which the query is justified: the
	// maximum over context classes of the class's richness-weighted
	// degree. A query is "justified" when some parallel world supports it
	// on its own premise.
	Degree model.Fuzzy
	// ByContext maps a context label to its aggregated degree.
	ByContext map[string]model.Fuzzy
	// Evidence lists the claims of the best-supporting context.
	Evidence []Claim
	// Explanation is a human-readable account (the paper requires answers
	// to be "evidence-based and justified (not limited to just a
	// confidence score)").
	Explanation string
}

// Justified evaluates a fuzzy predicate over the parallel worlds: claims
// are grouped into context classes (claims whose contexts are not disjoint
// share a class), each class aggregates its claims' degrees weighted by
// source richness and claim confidence, and the overall degree is the
// maximum over classes.
func (w *Worlds) Justified(entity model.EntityID, attr string, pred func(model.Value) model.Fuzzy) Justification {
	cs := w.ClaimsAbout(entity, attr)
	j := Justification{ByContext: map[string]model.Fuzzy{}}
	if len(cs) == 0 {
		j.Explanation = "no claims"
		return j
	}
	classes := w.groupByContext(cs)
	bestLabel := ""
	for _, cl := range classes {
		var num, den float64
		for _, c := range cl.claims {
			wgt := w.weight(c.Source) * float64(c.Confidence)
			num += wgt * float64(pred(c.Value))
			den += wgt
		}
		deg := model.Fuzzy(0)
		if den > 0 {
			deg = model.Fuzzy(num / den).Clamp()
		}
		j.ByContext[cl.label] = deg
		if deg > j.Degree || (deg == j.Degree && bestLabel == "") {
			j.Degree = deg
			j.Evidence = cl.claims
			bestLabel = cl.label
		}
	}
	if j.Degree > 0 {
		srcs := make([]string, 0, len(j.Evidence))
		for _, c := range j.Evidence {
			srcs = append(srcs, c.Source)
		}
		j.Explanation = fmt.Sprintf("justified to degree %.2f within context %q by %s",
			float64(j.Degree), bestLabel, strings.Join(srcs, ", "))
	} else {
		j.Explanation = "no context class supports the query"
	}
	return j
}

// contextClass is a group of claims sharing a (non-disjoint) context.
type contextClass struct {
	label  string
	claims []Claim
}

// groupByContext clusters claims into context classes: claims whose
// contexts are disjoint under the ontology land in different classes;
// everything else shares one. Labels are the sorted union of the class's
// context concepts ("∅" for empty).
func (w *Worlds) groupByContext(cs []Claim) []contextClass {
	var classes []contextClass
	for _, c := range cs {
		placed := false
		for i := range classes {
			if !w.contextsDisjoint(classes[i].claims[0].Context, c.Context) {
				classes[i].claims = append(classes[i].claims, c)
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, contextClass{claims: []Claim{c}})
		}
	}
	for i := range classes {
		labels := map[string]bool{}
		for _, c := range classes[i].claims {
			for _, ctx := range c.Context {
				labels[ctx] = true
			}
		}
		if len(labels) == 0 {
			classes[i].label = "∅"
			continue
		}
		ls := make([]string, 0, len(labels))
		for l := range labels {
			ls = append(ls, l)
		}
		sort.Strings(ls)
		classes[i].label = strings.Join(ls, "+")
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i].label < classes[j].label })
	return classes
}

// Policy selects how Resolve reconciles conflicting values.
type Policy int

const (
	// PolicyVote picks the most frequently claimed value (ties: first in
	// value order).
	PolicyVote Policy = iota
	// PolicyRichnessWeighted picks the value whose supporting sources have
	// the greatest total richness — FS.9's "assess the richness or
	// validity of discovered entities based on the degree of richness of
	// each source".
	PolicyRichnessWeighted
	// PolicyMostConfident picks the single claim with the highest
	// confidence × richness.
	PolicyMostConfident
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyVote:
		return "vote"
	case PolicyRichnessWeighted:
		return "richness"
	case PolicyMostConfident:
		return "confident"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Resolve reconciles the claims about (entity, attr) into one value and a
// support degree in [0,1] (the fraction of weight behind the winner).
func (w *Worlds) Resolve(entity model.EntityID, attr string, p Policy) (model.Value, model.Fuzzy, error) {
	cs := w.ClaimsAbout(entity, attr)
	if len(cs) == 0 {
		return model.Null(), 0, fmt.Errorf("fusion: no claims about entity %d attr %q", entity, attr)
	}
	type bucket struct {
		v      model.Value
		weight float64
	}
	buckets := map[uint64]*bucket{}
	total := 0.0
	for _, c := range cs {
		wgt := 1.0
		switch p {
		case PolicyRichnessWeighted, PolicyMostConfident:
			wgt = w.weight(c.Source) * float64(c.Confidence)
		}
		total += wgt
		h := c.Value.Hash()
		if b, ok := buckets[h]; ok {
			if p == PolicyMostConfident {
				if wgt > b.weight {
					b.weight = wgt
				}
			} else {
				b.weight += wgt
			}
		} else {
			buckets[h] = &bucket{v: c.Value, weight: wgt}
		}
	}
	var list []*bucket
	for _, b := range buckets {
		list = append(list, b)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].weight != list[j].weight {
			return list[i].weight > list[j].weight
		}
		return model.Less(list[i].v, list[j].v)
	})
	win := list[0]
	if total == 0 {
		return win.v, 0, nil
	}
	return win.v, model.Fuzzy(win.weight / total).Clamp(), nil
}

// WorldVar is the one variable of ToCTable's space: its alternative i is
// the world of the i-th context class in label order.
const WorldVar = uncertain.Var("world")

// ToCTable bridges parallel worlds into the possible-worlds formalism
// (FS.10 asks whether the c-table representation suffices for parallel
// worlds): each context class becomes one alternative of WorldVar ("which
// premise applies"), weighted by the class's share of richness ×
// confidence, and each claim becomes a tuple {attr, value, source,
// context} conditioned on its class's alternative. worlds() in SCQL lays
// it out with each value's probability.
func (w *Worlds) ToCTable(entity model.EntityID, attr string) (*uncertain.CTable, error) {
	cs := w.ClaimsAbout(entity, attr)
	if len(cs) == 0 {
		return nil, fmt.Errorf("fusion: no claims about entity %d attr %q", entity, attr)
	}
	classes := w.groupByContext(cs)
	probs := make([]float64, len(classes))
	total := 0.0
	for i, cl := range classes {
		for _, c := range cl.claims {
			probs[i] += w.weight(c.Source) * float64(c.Confidence)
		}
		total += probs[i]
	}
	if total == 0 {
		return nil, fmt.Errorf("fusion: all claims have zero weight")
	}
	for i := range probs {
		probs[i] /= total
	}
	ct := uncertain.NewCTable(fmt.Sprintf("parallel-%d-%s", entity, attr))
	if err := ct.Space.AddChoice(WorldVar, probs); err != nil {
		return nil, err
	}
	for i, cl := range classes {
		for _, c := range cl.claims {
			ct.AddConditioned(model.Record{
				"attr":    model.String(attr),
				"value":   c.Value,
				"source":  model.String(c.Source),
				"context": model.String(cl.label),
			}, uncertain.Eq(WorldVar, i))
		}
	}
	return ct, nil
}
