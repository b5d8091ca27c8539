// Package richness implements the paper's FS.2: a formalism to "express
// and capture the interconnectedness in order to assess and measure the
// richness of each data source based on the connectivity and density".
//
// Following the paper's pointers, the formalism combines information
// content (entropy of attribute values) with graph-theoretic measures
// (degree, density, connectivity of the source's subgraph). The resulting
// score is the weight the fusion layer uses when conflicting sources must
// be ranked (FS.9: "assess the richness or validity of discovered entities
// based on the degree of richness of each source").
package richness

import (
	"maps"
	"math"
	"slices"
	"sort"

	"scdb/internal/graph"
	"scdb/internal/model"
)

// Metrics quantifies one source's richness.
type Metrics struct {
	Source string
	// Entities and Edges count the source's contribution to the relation
	// layer (edges keep their source tag across entity merges).
	Entities int
	Edges    int
	// AvgDegree is Edges/Entities.
	AvgDegree float64
	// Density is the edge density of the source subgraph: Edges/(n*(n-1)).
	Density float64
	// DistinctPredicates counts the distinct relation labels the source
	// uses — a proxy for schema richness.
	DistinctPredicates int
	// FillRate is the fraction of non-null attribute cells across the
	// source's entities, measured against the source's union schema.
	FillRate float64
	// ValueEntropy is the mean normalized Shannon entropy of attribute
	// value distributions: the information-content measure. 0 means every
	// value identical; 1 means all values distinct.
	ValueEntropy float64
	// Connectivity is the fraction of the source's entities inside its
	// largest weakly connected component.
	Connectivity float64
	// Score is the combined richness in [0,1]; see Score.
	Score float64
}

// Measure computes the metrics of one source over the graph.
func Measure(g *graph.Graph, source string) Metrics {
	m := Metrics{Source: source}

	// Attribute entities to the source by the keys it registered: this
	// attribution survives entity-resolution merges (a record swallowed
	// into another source's entity still counts for its origin source).
	ids := g.SourceEntities(source)
	attrs := map[string]bool{}
	valueCounts := map[string]map[uint64]int{} // attr → value hash → count
	valueTotals := map[string]int{}
	for _, id := range ids {
		e, ok := g.Entity(id)
		if !ok {
			continue
		}
		for k, v := range e.Attrs {
			if model.IsRowColumn(k) {
				continue
			}
			attrs[k] = true
			if v.IsNull() {
				continue
			}
			cm, ok := valueCounts[k]
			if !ok {
				cm = map[uint64]int{}
				valueCounts[k] = cm
			}
			cm[v.Hash()]++
			valueTotals[k]++
		}
	}
	m.Entities = len(ids)

	preds := map[string]bool{}
	adj := map[model.EntityID][]model.EntityID{}
	g.ForEachEdge(func(e graph.Edge) bool {
		if e.Source != source {
			return true
		}
		m.Edges++
		preds[e.Predicate] = true
		if to, ok := e.To.AsRef(); ok {
			adj[e.From] = append(adj[e.From], to)
			adj[to] = append(adj[to], e.From)
		}
		return true
	})
	m.DistinctPredicates = len(preds)

	if m.Entities > 0 {
		m.AvgDegree = float64(m.Edges) / float64(m.Entities)
		if m.Entities > 1 {
			m.Density = float64(m.Edges) / float64(m.Entities*(m.Entities-1))
		}
		// Fill rate against the union schema.
		filled := 0
		for _, n := range valueTotals {
			filled += n
		}
		if len(attrs) > 0 {
			m.FillRate = float64(filled) / float64(len(attrs)*m.Entities)
		}
		m.ValueEntropy = meanNormalizedEntropy(valueCounts, valueTotals)
		m.Connectivity = largestComponentFraction(ids, adj)
	}
	m.Score = Score(m)
	return m
}

// MeasureAll measures every source that registered entities or edges,
// sorted by descending score.
func MeasureAll(g *graph.Graph) []Metrics {
	sources := g.Sources()
	out := make([]Metrics, 0, len(sources))
	for _, s := range sources {
		out = append(out, Measure(g, s))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Source < out[j].Source
	})
	return out
}

// Score combines the metrics into one richness value in [0,1]:
// 0.30·entropy + 0.25·connectivity + 0.25·saturating(avg degree) +
// 0.20·fill rate. The saturation deg/(1+deg) keeps unbounded degree from
// dominating, and the weights favour information content per the paper's
// lead ("information content and capacity are a common measure").
func Score(m Metrics) float64 {
	if m.Entities == 0 {
		return 0
	}
	degSat := m.AvgDegree / (1 + m.AvgDegree)
	s := 0.30*m.ValueEntropy + 0.25*m.Connectivity + 0.25*degSat + 0.20*m.FillRate
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// meanNormalizedEntropy averages H(attr)/log2(total) over attributes with
// at least two observed values.
func meanNormalizedEntropy(counts map[string]map[uint64]int, totals map[string]int) float64 {
	// Sums run in a fixed order, so a source measures alike on every run.
	sum, n := 0.0, 0
	for _, attr := range slices.Sorted(maps.Keys(counts)) {
		total := totals[attr]
		if total < 2 {
			continue
		}
		h := 0.0
		for _, c := range slices.Sorted(maps.Values(counts[attr])) {
			p := float64(c) / float64(total)
			h -= p * math.Log2(p)
		}
		sum += h / math.Log2(float64(total))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// largestComponentFraction computes the size of the largest weakly
// connected component among ids (restricted to those ids) divided by the
// number of ids.
func largestComponentFraction(ids []model.EntityID, adj map[model.EntityID][]model.EntityID) float64 {
	if len(ids) == 0 {
		return 0
	}
	inSet := make(map[model.EntityID]bool, len(ids))
	for _, id := range ids {
		inSet[id] = true
	}
	seen := map[model.EntityID]bool{}
	best := 0
	for _, id := range ids {
		if seen[id] {
			continue
		}
		size := 0
		stack := []model.EntityID{id}
		seen[id] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, nb := range adj[cur] {
				if inSet[nb] && !seen[nb] {
					seen[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		if size > best {
			best = size
		}
	}
	return float64(best) / float64(len(ids))
}
