package main

import (
	"math"
	"math/rand"
	"testing"
)

// synth builds pairs whose metric m reads parent(k) and change(k) in
// pair k.
func synth(n int, parent, change func(k int) float64) []pair {
	ps := make([]pair, n)
	for k := range ps {
		ps[k] = pair{
			Seed:   int64(k + 1),
			Parent: run{Correct: true, Metrics: map[string]float64{"m": parent(k)}},
			Change: run{Correct: true, Metrics: map[string]float64{"m": change(k)}},
		}
	}
	return ps
}

func TestSignTest(t *testing.T) {
	for _, tc := range []struct {
		wins, losses int
		want         float64
	}{
		{0, 0, 1},
		{5, 5, 1},
		{3, 0, 0.25},
		{6, 0, 0.03125},
		{0, 6, 0.03125},
		{9, 1, 22.0 / 1024},
		{10, 0, 2.0 / 1024},
		{7, 3, 0.34375},
	} {
		if got := signTest(tc.wins, tc.losses); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %v, want %v", tc.wins, tc.losses, got, tc.want)
		}
	}
}

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{4, 1, 3, 2})
	if q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Errorf("quartiles of 1..4 = %v %v %v, want 1.75 2.5 3.25", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v %v %v", q1, med, q3)
	}
}

// TestVerdictRule holds the rule in verdict's doc comment to synthetic
// series, in both directions of "better".
func TestVerdictRule(t *testing.T) {
	noise := func(seed int64) func(int) float64 {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, 64)
		for i := range vals {
			vals[i] = 100 + rng.NormFloat64()
		}
		return func(k int) float64 { return vals[k] }
	}
	const lower, higher = "lower", "higher"
	for _, tc := range []struct {
		name   string
		better string
		pairs  []pair
		want   string
	}{
		{"a clear drop of a lower-is-better metric", lower,
			synth(10, noise(1), func(k int) float64 { return noise(1)(k) * 0.7 }), "better"},
		{"the same drop of a higher-is-better metric", higher,
			synth(10, noise(1), func(k int) float64 { return noise(1)(k) * 0.7 }), "worse"},
		{"a clear rise of a lower-is-better metric", lower,
			synth(10, noise(2), func(k int) float64 { return noise(2)(k) + 10 }), "worse"},
		{"a clear rise of a higher-is-better metric", higher,
			synth(10, noise(2), func(k int) float64 { return noise(2)(k) + 10 }), "better"},
		{"every pair tied", lower,
			synth(10, func(int) float64 { return 5 }, func(int) float64 { return 5 }), "unresolved"},
		{"three clear pairs are too few for the sign test", lower,
			synth(3, noise(3), func(k int) float64 { return noise(3)(k) / 2 }), "unresolved"},
		{"nine clear pairs pass the sign test but are too few", lower,
			synth(9, noise(3), func(k int) float64 { return noise(3)(k) / 2 }), "unresolved"},
		{"nine clear rises are too few as well", lower,
			synth(9, noise(3), func(k int) float64 { return noise(3)(k) * 2 }), "unresolved"},
		{"ten clear pairs are enough", lower,
			synth(10, noise(3), func(k int) float64 { return noise(3)(k) / 2 }), "better"},
		{"8 of 10 pairs won is not 9 of 10", lower,
			synth(10, noise(4), func(k int) float64 {
				if k < 2 {
					return noise(4)(k) + 50
				}
				return noise(4)(k) - 50
			}), "unresolved"},
		{"every pair won by less than the parent's spread", lower,
			synth(10, func(k int) float64 { return float64(100 + 10*k) }, func(k int) float64 { return float64(99 + 10*k) }), "unresolved"},
	} {
		s, ok := summarize(metricDef{Name: "m", Better: tc.better}, tc.pairs)
		if !ok || s.Verdict != tc.want {
			t.Errorf("%s: %s (%d better, %d worse, %d tied, p=%.3f, parent %.1f [%.1f–%.1f], change %.1f), want %s",
				tc.name, s.Verdict, s.BetterPairs, s.WorsePairs, s.Ties, s.SignP, s.ParentMedian, s.ParentQ1, s.ParentQ3, s.ChangeMedian, tc.want)
		}
	}
}

// TestSameSideReadsUnresolved: runs of one side against themselves read
// unresolved. A set of 10 pairs drawn from one distribution, with the
// drift a sandbox shows, reads unresolved in both directions; over 1,000
// such sets the rule calls at most 1 % of them either way, as a 9-of-10
// split alone happens to 2.1 % of fair coins.
func TestSameSideReadsUnresolved(t *testing.T) {
	for _, better := range []string{"lower", "higher"} {
		if s, _ := summarize(metricDef{Name: "m", Better: better}, synth(10, noisy(0, 0), noisy(0, 1))); s.Verdict != "unresolved" {
			t.Errorf("an A/A set, %s is better: %s (%d better, %d worse)", better, s.Verdict, s.BetterPairs, s.WorsePairs)
		}
	}
	called := 0
	const sets = 1000
	for seed := int64(1); seed <= sets; seed++ {
		if s, _ := summarize(metricDef{Name: "m", Better: "lower"}, synth(10, noisy(seed, 0), noisy(seed, 1))); s.Verdict != "unresolved" {
			called++
		}
	}
	t.Logf("%d of %d A/A sets called", called, sets)
	if called > sets/100 {
		t.Errorf("%d of %d A/A sets read better or worse, want at most 1 %%", called, sets)
	}
}

// noisy draws a side's runs: a drifting machine (a slow wave) plus noise.
func noisy(seed, side int64) func(int) float64 {
	rng := rand.New(rand.NewSource(seed*2 + side))
	return func(k int) float64 { return 100 + 5*math.Sin(float64(k)/3) + 3*rng.NormFloat64() }
}

// TestMergeExtendsItsSeries: pairs join the series of the same commits,
// workload and trace mode, and the metrics of every series are read again
// by the current rule; another trace mode starts a series of its own, and
// a metric no pair recorded on both sides is left out.
func TestMergeExtendsItsSeries(t *testing.T) {
	defs := []metricDef{{Name: "m", Better: "lower"}, {Name: "absent", Better: "lower"}}
	f := file{}
	base := series{Parent: "p", Change: "c", Workload: "w", Seconds: 8}
	first := base
	first.Pairs = synth(4, func(int) float64 { return 10 }, func(int) float64 { return 5 })
	s := merge(&f, first, defs)
	if v := s.Metrics[0].Verdict; v != "unresolved" {
		t.Errorf("4 clear pairs read %s, want unresolved", v)
	}
	second := base
	second.Pairs = synth(6, func(int) float64 { return 10 }, func(int) float64 { return 5 })
	s = merge(&f, second, defs)
	if len(f.Series) != 1 || len(s.Pairs) != 10 || len(s.Seeds) != 10 || len(s.Metrics) != 1 || s.Metrics[0].BetterPairs != 10 {
		t.Fatalf("after two merges: %d series, %d pairs, %d seeds, metrics %+v", len(f.Series), len(s.Pairs), len(s.Seeds), s.Metrics)
	}
	if s.Metrics[0].Verdict != "better" {
		t.Errorf("10 clear pairs read %s, want better", s.Metrics[0].Verdict)
	}
	traced := base
	traced.Trace = true
	traced.Pairs = first.Pairs
	merge(&f, traced, defs)
	if len(f.Series) != 2 {
		t.Errorf("a traced series joined an untraced one: %d series", len(f.Series))
	}

	// A file judged by an older rule is read again by this one.
	f.Rule = "an older rule"
	f.Series[0].Metrics[0].Verdict = "worse"
	merge(&f, series{Parent: "p2", Change: "c", Workload: "w"}, defs)
	if f.Rule != rule || f.Series[0].Metrics[0].Verdict != "better" {
		t.Errorf("after a merge into another series, the file states %q and the first series reads %s", f.Rule, f.Series[0].Metrics[0].Verdict)
	}
}

// TestPlanAlternatesAcrossInvocations: the pair at place i of a series
// runs the parent first when i is even, whichever invocation adds it, so
// a series built from runs of odd length still goes A B B A; a seed the
// series holds is refused.
func TestPlanAlternatesAcrossInvocations(t *testing.T) {
	prior := &series{Workload: "w"}
	for _, n := range []int{3, 1, 3, 5} {
		ps, err := plan(prior, int64(len(prior.Pairs)+1), n)
		if err != nil {
			t.Fatal(err)
		}
		prior.Pairs = append(prior.Pairs, ps...)
	}
	for i, p := range prior.Pairs {
		want := "parent"
		if i%2 == 1 {
			want = "change"
		}
		if p.First != want || p.Seed != int64(i+1) {
			t.Errorf("pair %d: seed %d, %s first; want seed %d, %s first", i, p.Seed, p.First, i+1, want)
		}
	}
	if ps, err := plan(nil, 5, 2); err != nil || ps[0].First != "parent" || ps[1].First != "change" {
		t.Errorf("a new series: %+v, %v", ps, err)
	}
	if _, err := plan(prior, 12, 3); err == nil {
		t.Error("seeds 12–14 were planned again into a series that holds seeds 1–12")
	}
	if _, err := plan(prior, 13, 3); err != nil {
		t.Errorf("seeds 13–15 after seeds 1–12: %v", err)
	}
}
