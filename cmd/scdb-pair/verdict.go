package main

import (
	"math"
	"sort"
)

// run is what a pair keeps of one benchmark record.
type run struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// pair is one parent run and one change run of the same workload, seed
// and settings. First says which side ran first.
type pair struct {
	Seed   int64  `json:"seed"`
	First  string `json:"first"`
	Parent run    `json:"parent"`
	Change run    `json:"change"`
}

// summary is one metric's reading over a series of pairs.
type summary struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	// Ratios are change/parent, pair by pair; a pair whose parent read 0
	// has none.
	Ratios       []float64 `json:"ratios"`
	BetterPairs  int       `json:"better_pairs"`
	WorsePairs   int       `json:"worse_pairs"`
	Ties         int       `json:"ties"`
	SignP        float64   `json:"sign_p"`
	ParentMedian float64   `json:"parent_median"`
	ParentQ1     float64   `json:"parent_q1"`
	ParentQ3     float64   `json:"parent_q3"`
	ChangeMedian float64   `json:"change_median"`
	ChangeQ1     float64   `json:"change_q1"`
	ChangeQ3     float64   `json:"change_q3"`
	// MedianChangePct is the change's median against the parent's, in
	// percent of the parent's.
	MedianChangePct float64 `json:"median_change_pct"`
	Verdict         string  `json:"verdict"`
}

// metricDef is a metric's entry in BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// summarize reads one metric over the pairs that recorded it on both
// sides, or reports false when none did.
func summarize(def metricDef, pairs []pair) (summary, bool) {
	s := summary{Name: def.Name, Unit: def.Unit, Better: def.Better, Ratios: []float64{}}
	var parent, change []float64
	for _, p := range pairs {
		a, okA := p.Parent.Metrics[def.Name]
		b, okB := p.Change.Metrics[def.Name]
		if !okA || !okB {
			continue
		}
		parent, change = append(parent, a), append(change, b)
		if a != 0 {
			s.Ratios = append(s.Ratios, b/a)
		}
		switch {
		case a == b:
			s.Ties++
		case (b < a) == (def.Better == "lower"):
			s.BetterPairs++
		default:
			s.WorsePairs++
		}
	}
	if len(parent) == 0 {
		return s, false
	}
	s.SignP = signTest(s.BetterPairs, s.WorsePairs)
	s.ParentQ1, s.ParentMedian, s.ParentQ3 = quartiles(parent)
	s.ChangeQ1, s.ChangeMedian, s.ChangeQ3 = quartiles(change)
	if s.ParentMedian != 0 {
		s.MedianChangePct = 100 * (s.ChangeMedian - s.ParentMedian) / s.ParentMedian
	}
	s.Verdict = verdict(s)
	return s, true
}

// verdict is the one rule a metric's reading is judged by. Over n pairs,
// ties counting for neither side:
//
//   - better: n is at least 10, the change reads better than the parent
//     in at least 9 of every 10 pairs, the exact two-sided sign test over
//     the pairs that differ gives p ≤ 0.05, and the change's median lies
//     on the better side of the parent's by more than the parent's
//     interquartile range;
//   - worse: the same four conditions the other way;
//   - unresolved: anything else.
//
// A series of fewer than 10 pairs reads unresolved whatever it shows: it
// is a prediction, not a verdict. A set of parent runs against themselves
// reads unresolved, because neither side wins 9 of 10.
func verdict(s summary) string {
	n := s.BetterPairs + s.WorsePairs + s.Ties
	if n < 10 || s.SignP > 0.05 {
		return "unresolved"
	}
	iqr := s.ParentQ3 - s.ParentQ1
	gain := s.ParentMedian - s.ChangeMedian
	if s.Better == "higher" {
		gain = -gain
	}
	switch {
	case 10*s.BetterPairs >= 9*n && gain > iqr:
		return "better"
	case 10*s.WorsePairs >= 9*n && -gain > iqr:
		return "worse"
	}
	return "unresolved"
}

// signTest is the exact two-sided sign test: the probability, under a
// fair coin, of a split of wins and losses at least as uneven as this one.
func signTest(wins, losses int) float64 {
	n := wins + losses
	if n == 0 {
		return 1
	}
	k := min(wins, losses)
	var tail float64
	for i := 0; i <= k; i++ {
		tail += math.Exp(lchoose(n, i) - float64(n)*math.Ln2)
	}
	return min(1, 2*tail)
}

// lchoose is the natural logarithm of n choose k.
func lchoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// quartiles returns the first quartile, the median and the third quartile
// of xs, interpolating linearly between order statistics.
func quartiles(xs []float64) (q1, median, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
