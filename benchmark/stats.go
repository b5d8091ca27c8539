package main

import (
	"math"
	"sort"
)

// series is a set of measured values of one quantity.
type series []float64

func (s series) sorted() series {
	out := append(series(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile by linear interpolation between order
// statistics, or 0 for an empty series.
func (s series) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	o := s.sorted()
	pos := q * float64(len(o)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return o[lo] + (o[hi]-o[lo])*(pos-float64(lo))
}

func (s series) median() float64 { return s.quantile(0.5) }

// tail returns the q-quantile only when at least ten samples lie beyond
// it; a percentile with fewer is one or two outliers, not a measurement.
func (s series) tail(q float64) (float64, bool) {
	if float64(len(s))*(1-q) < 10 {
		return 0, false
	}
	return s.quantile(q), true
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives (the exclusive method), which is what the driver computes.
func (s series) spread() float64 {
	if len(s) < 2 {
		return 0
	}
	o := s.sorted()
	q := func(i int) float64 {
		const n = 4
		j := i * (len(o) + 1) / n
		j = max(1, min(j, len(o)-1))
		delta := i*(len(o)+1) - j*n
		return (o[j-1]*float64(n-delta) + o[j]*float64(delta)) / n
	}
	m := s.median()
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
