package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"scdb/internal/model"
)

// predMatches re-implements the query evaluator's predicate semantics for
// use as the differential-test filter: =/</<=/>/>= via model.Compare
// (incomparable or null → no match), IN via model.Equal.
func predMatches(p model.Conjunct, r model.Record) bool {
	v := r.Get(p.Attr)
	if v.IsNull() {
		return false
	}
	if p.Op == "in" {
		for _, w := range p.Vals {
			if model.Equal(v, w) {
				return true
			}
		}
		return false
	}
	c, err := model.Compare(v, p.Val)
	if err != nil {
		return false
	}
	switch p.Op {
	case "=":
		return c == 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// answerVia runs ScanWhere under opt and filters the yielded superset down
// to the rows that actually match, in the order the scan yielded them.
func answerVia(tb *Table, csn CSN, p model.Conjunct, opt ScanOptions) []model.Record {
	c := tb.ScanWhere(csn, []model.Conjunct{p}, opt)
	recs, _ := drain(&c)
	return matching(p, recs)
}

// oracle computes the same answer with a plain full snapshot scan, in RowID
// order.
func oracle(tb *Table, csn CSN, p model.Conjunct) []model.Record {
	return matching(p, scanAt(tb, csn))
}

func matching(p model.Conjunct, recs []model.Record) []model.Record {
	var got []model.Record
	for _, rec := range recs {
		if predMatches(p, rec) {
			got = append(got, rec)
		}
	}
	return got
}

// scanInfo drains a pushed-down scan and reports what it did.
func scanInfo(tb *Table, csn CSN, preds []model.Conjunct, opt ScanOptions) ScanInfo {
	c := tb.ScanWhere(csn, preds, opt)
	drain(&c)
	return c.Info()
}

func TestIndexEqualityAndRange(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")
	if err := tb.CreateIndex("h"); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateIndex("r"); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateIndex("h"); err == nil {
		t.Fatal("duplicate CreateIndex must fail")
	}
	for i := 0; i < 500; i++ {
		insert(tb, rec("h", i%10, "r", float64(i), "s", fmt.Sprintf("v%03d", i%50)))
	}
	now := s.Now()
	preds := []model.Conjunct{
		{Attr: "h", Op: "=", Val: model.Int(3)},
		{Attr: "h", Op: "in", Vals: []model.Value{model.Int(1), model.Int(7)}},
		{Attr: "r", Op: "<", Val: model.Float(33)},
		{Attr: "r", Op: "<=", Val: model.Float(33)},
		{Attr: "r", Op: ">", Val: model.Int(490)},
		{Attr: "r", Op: ">=", Val: model.Int(490)},
		{Attr: "r", Op: "=", Val: model.Float(123)},
		{Attr: "s", Op: "=", Val: model.String("v007")}, // no index on s
		{Attr: "h", Op: "=", Val: model.String("nope")}, // cross-kind: empty
	}
	for _, p := range preds {
		want := oracle(tb, now, p)
		got := answerVia(tb, now, p, ScanOptions{})
		sameRecords(t, fmt.Sprintf("%s %s", p.Attr, p.Op), got, want)
	}
	// The equality on h must actually have used the index on h.
	info := scanInfo(tb, now, []model.Conjunct{preds[0]}, ScanOptions{})
	if info.Index != "t.h" {
		t.Fatalf("Index = %q, want t.h", info.Index)
	}
}

// TestIndexOddValues covers the comparison-semantics edge cases: NaN floats
// (Compare-equal to every numeric), -0.0/+0.0 (Equal, and neither sorts
// before the other), and list values (excluded from sorted order).
func TestIndexOddValues(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")
	tb.CreateIndex("a")
	tb.CreateIndex("b")
	nan := model.Float(math.NaN())
	vals := []model.Value{
		model.Int(1), model.Float(2.5), nan, model.Float(math.Copysign(0, -1)),
		model.Float(0), model.Int(0), model.String("x"),
		model.List(model.Int(1), model.Int(2)), model.List(),
	}
	for _, v := range vals {
		insert(tb, model.Record{"a": v, "b": v})
	}
	now := s.Now()
	preds := []model.Conjunct{
		{Attr: "a", Op: "=", Val: model.Int(0)},   // must find -0.0, +0.0, 0, and NaN
		{Attr: "a", Op: "=", Val: nan},            // NaN literal matches every numeric
		{Attr: "b", Op: "=", Val: nan},            // same on b
		{Attr: "b", Op: "<", Val: model.Float(2)}, // NaN compares equal, not less
		{Attr: "b", Op: ">=", Val: model.Int(0)},
		{Attr: "a", Op: "in", Vals: []model.Value{nan, model.Int(1)}}, // IN is Equal: NaN only matches NaN
		{Attr: "b", Op: "=", Val: model.List(model.Int(1), model.Int(2))},
	}
	for _, p := range preds {
		want := oracle(tb, now, p)
		got := answerVia(tb, now, p, ScanOptions{})
		sameRecords(t, fmt.Sprintf("%s %s %s", p.Attr, p.Op, p.Val), got, want)
	}
}

// TestIndexMVCCDifferential interleaves inserts, updates, deletes, and
// vacuums under randomized mixed-kind values, then checks at several
// snapshot CSNs that indexed scans, pruned scans, and plain scans all agree
// with a full-scan oracle.
func TestIndexMVCCDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")
	tb.CreateIndex("k")
	tb.CreateIndex("v")

	randVal := func() model.Value {
		switch rng.Intn(12) {
		case 0:
			return model.Float(math.NaN())
		case 1:
			return model.String(fmt.Sprintf("s%02d", rng.Intn(20)))
		case 2:
			return model.List(model.Int(int64(rng.Intn(3))))
		case 3:
			return model.Null()
		case 4:
			return model.Float(float64(rng.Intn(40)) / 4)
		default:
			return model.Int(int64(rng.Intn(40)))
		}
	}
	var live []RowID
	var snaps []CSN
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(100); {
		case op < 50:
			id, err := insert(tb, model.Record{"k": randVal(), "v": randVal()})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		case op < 75 && len(live) > 0:
			if err := update(tb, live[rng.Intn(len(live))], model.Record{"k": randVal(), "v": randVal()}); err != nil {
				t.Fatal(err)
			}
		case op < 95 && len(live) > 0:
			i := rng.Intn(len(live))
			if err := del(tb, live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		default:
			// Vacuum to a recent horizon: both paths keep reading the same
			// retained version chains, so the differential stays valid.
			tb.Vacuum(s.Now())
			snaps = nil // older snapshots are no longer guaranteed readable
		}
		if step%250 == 0 {
			snaps = append(snaps, s.Now())
		}
	}
	snaps = append(snaps, s.Now())

	preds := []model.Conjunct{
		{Attr: "k", Op: "=", Val: model.Int(7)},
		{Attr: "k", Op: "=", Val: model.Float(math.NaN())},
		{Attr: "k", Op: "in", Vals: []model.Value{model.Int(3), model.String("s05"), model.Float(math.NaN())}},
		{Attr: "v", Op: "<", Val: model.Float(5)},
		{Attr: "v", Op: ">=", Val: model.Int(30)},
		{Attr: "v", Op: "=", Val: model.String("s11")},
		{Attr: "v", Op: "=", Val: model.List(model.Int(1))},
	}
	for _, csn := range snaps {
		for _, p := range preds {
			want := oracle(tb, csn, p)
			label := fmt.Sprintf("csn=%d %s %s %s", csn, p.Attr, p.Op, p.Val)
			sameRecords(t, label+" indexed", answerVia(tb, csn, p, ScanOptions{}), want)
			sameRecords(t, label+" no-index", answerVia(tb, csn, p, ScanOptions{NoIndex: true}), want)
			sameRecords(t, label+" no-prune", answerVia(tb, csn, p, ScanOptions{NoPrune: true, NoIndex: true}), want)
		}
	}
}

// TestIndexBulkEqualsIncremental pins the two ways an index comes to hold
// its postings against each other. Every record carries the same value under
// a and b: the index on a exists before the writes and is maintained posting
// by posting through addLocked and the linear merge; the index on b is
// created after them, by the bulk build; a Vacuum that trims nothing then
// rebuilds both. All three must return the same candidate set
// for every predicate, and that set must hold the oracle's rows at every
// snapshot. A trimming Vacuum closes with the oracle check alone.
func TestIndexBulkEqualsIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")
	tb.CreateIndex("a")

	epoch := time.Unix(1_700_000_000, 0)
	randVal := func() model.Value {
		switch rng.Intn(16) {
		case 0:
			return model.Float(math.NaN())
		case 1:
			return model.Float(math.Copysign(0, -1))
		case 2:
			return model.Float(0)
		case 3:
			return model.List(model.Int(int64(rng.Intn(3))), model.String("x"))
		case 4:
			return model.Null()
		case 5, 6:
			return model.String(fmt.Sprintf("s%02d", rng.Intn(30)))
		case 7:
			return model.Time(epoch.Add(time.Duration(rng.Intn(30)) * time.Hour))
		case 8:
			return model.Bool(rng.Intn(2) == 0)
		case 9, 10, 11:
			return model.Float(float64(rng.Intn(120))/4 - 5)
		default:
			return model.Int(int64(rng.Intn(30) - 5))
		}
	}
	record := func() model.Record {
		v := randVal()
		return model.Record{"a": v, "b": v}
	}
	var live []RowID
	var snaps []CSN
	const steps = 12 * pendingMergeLimit
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 55 || len(live) == 0:
			id, err := insert(tb, record())
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		case op < 85:
			if err := update(tb, live[rng.Intn(len(live))], record()); err != nil {
				t.Fatal(err)
			}
		default:
			i := rng.Intn(len(live))
			if err := del(tb, live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		if step%(steps/6) == 0 {
			snaps = append(snaps, s.Now())
		}
	}
	snaps = append(snaps, s.Now())
	if n := len(tb.indexes["a"].sorted); n < 4*pendingMergeLimit {
		t.Fatalf("incremental index merged only %d postings; the test must cross several merges", n)
	}
	tb.CreateIndex("b")

	// Each entry is the conjuncts of one scan over attr "a" (withAttr
	// retargets them): one conjunct, or the two bounds of a range, which
	// chooseIndexLocked hands the index together.
	var preds [][]model.Conjunct
	lits := []model.Value{
		model.Int(-5), model.Int(0), model.Float(math.Copysign(0, -1)), model.Float(7.25), model.Int(12),
		model.Float(24.75), model.Float(math.NaN()), model.String("s00"), model.String("s17"), model.String("zz"),
		model.Time(epoch.Add(9 * time.Hour)), model.Bool(true), model.List(model.Int(1), model.String("x")),
	}
	for _, lit := range lits {
		for _, op := range []string{"=", "<", "<=", ">", ">="} {
			preds = append(preds, []model.Conjunct{{Attr: "a", Op: op, Val: lit}})
		}
	}
	// Two-sided: proper ranges in either conjunct order, a string range, an
	// empty and an inverted one, a NaN bound and bounds of two classes.
	for _, r := range [][4]any{
		{">=", model.Int(0), "<", model.Int(12)}, {"<=", model.Float(24.75), ">", model.Float(7.25)},
		{">", model.Int(-5), "<=", model.Float(0)}, {">=", model.String("s05"), "<", model.String("s17")},
		{">", model.Float(7.25), "<", model.Float(7.25)}, {">=", model.Int(12), "<", model.Int(0)},
		{">=", model.Float(math.NaN()), "<", model.Int(12)}, {">=", model.Int(0), "<=", model.Float(math.NaN())},
		{">=", model.Int(0), "<", model.String("s17")},
	} {
		preds = append(preds, []model.Conjunct{
			{Attr: "a", Op: r[0].(string), Val: r[1].(model.Value)},
			{Attr: "a", Op: r[2].(string), Val: r[3].(model.Value)},
		})
	}
	// IN lists across classes, one holding NaN (whose "=" window spans the
	// numeric class in both runs) and one holding a list literal.
	preds = append(preds,
		[]model.Conjunct{{Attr: "a", Op: "in", Vals: []model.Value{model.Int(3), model.Float(3.5), model.String("s05")}}},
		[]model.Conjunct{{Attr: "a", Op: "in", Vals: []model.Value{model.Float(0), model.Bool(false), model.Time(epoch)}}},
		[]model.Conjunct{{Attr: "a", Op: "in", Vals: []model.Value{model.Int(3), model.Float(math.NaN()), model.String("s05")}}},
		[]model.Conjunct{{Attr: "a", Op: "in", Vals: []model.Value{model.Float(math.NaN()), model.Bool(true), model.Time(epoch), model.List(model.Int(1))}}},
	)
	withAttr := func(ps []model.Conjunct, attr string) []model.Conjunct {
		out := slices.Clone(ps)
		for i := range out {
			out[i].Attr = attr
		}
		return out
	}
	label := func(ps []model.Conjunct) string {
		var parts []string
		for _, p := range ps {
			parts = append(parts, fmt.Sprintf("%s %v %v", p.Op, p.Val, p.Vals))
		}
		return strings.Join(parts, " AND ")
	}
	// cands is what a scan with these conjuncts gathers from the index on
	// attr.
	cands := func(attr string, ps []model.Conjunct) []RowID {
		tb.mu.RLock()
		defer tb.mu.RUnlock()
		ix, chosen := tb.chooseIndexLocked(withAttr(ps, attr))
		if ix == nil {
			t.Fatalf("%s: no index chosen on %s", label(ps), attr)
		}
		if len(ps) == 2 && len(chosen) != 2 {
			t.Fatalf("%s: a range reached the index as %d conjuncts", label(ps), len(chosen))
		}
		return ix.candidates(chosen)
	}
	covers := func(what string, ids []RowID, ps []model.Conjunct, csns []CSN) {
		t.Helper()
		for _, csn := range csns {
			tb.ScanAt(csn, func(id RowID, rec model.Record) bool {
				if !predMatches(ps[0], rec) || len(ps) == 2 && !predMatches(ps[1], rec) {
					return true
				}
				if _, ok := slices.BinarySearch(ids, id); !ok {
					t.Fatalf("%s %s: csn=%d: oracle row %d missing from candidates", what, label(ps), csn, id)
				}
				return true
			})
		}
	}

	// The index maintained incrementally (a) and the one built in bulk (b)
	// gather the same candidates for every predicate.
	incremental := make([][]RowID, len(preds))
	for i, p := range preds {
		inc, bulk := cands("a", p), cands("b", p)
		if !slices.Equal(inc, bulk) {
			t.Fatalf("a vs b, %s: incremental has %d candidates, bulk %d", label(p), len(inc), len(bulk))
		}
		covers("b", bulk, p, snaps)
		incremental[i] = inc
	}

	// The second bound does narrow the gather: a range holds fewer candidates
	// than either of its half-lines.
	both := cands("b", []model.Conjunct{{Op: ">=", Val: model.Int(0)}, {Op: "<", Val: model.Int(12)}})
	for _, half := range []model.Conjunct{{Op: ">=", Val: model.Int(0)}, {Op: "<", Val: model.Int(12)}} {
		if one := cands("b", []model.Conjunct{half}); len(both) >= len(one) {
			t.Fatalf("range gathers %d candidates, its half-line %s %d", len(both), label([]model.Conjunct{half}), len(one))
		}
	}

	// A Vacuum below every write trims no version but rebuilds every index.
	if removed := tb.Vacuum(0); removed != 0 {
		t.Fatalf("Vacuum(0) removed %d versions", removed)
	}
	for i, p := range preds {
		if rebuilt := cands("b", p); !slices.Equal(rebuilt, incremental[i]) {
			t.Fatalf("b after Vacuum, %s: %d candidates, incremental had %d", label(p), len(rebuilt), len(incremental[i]))
		}
	}

	// A trimming Vacuum: what survives still covers every readable snapshot.
	mid := snaps[len(snaps)/2]
	if removed := tb.Vacuum(mid); removed == 0 {
		t.Fatal("trimming Vacuum removed nothing")
	}
	for _, p := range preds {
		covers("b trimmed", cands("b", p), p, snaps[len(snaps)/2:])
	}
}

// sortedBuildTime returns the fastest of three sorted-index bulk builds over
// n rows of random floats (three attributes with one value each, indexed in
// turn). The fastest, not the median: other packages' tests share the CPUs,
// and what they add to a run is only ever time.
func sortedBuildTime(t *testing.T, n int) time.Duration {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")
	recs := make([]model.Record, n)
	for i := range recs {
		v := model.Float(rng.Float64() * 1000)
		recs[i] = model.Record{"v0": v, "v1": v, "v2": v}
	}
	if _, err := tb.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	var d [3]time.Duration
	for i := range d {
		start := time.Now()
		if err := tb.CreateIndex(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		d[i] = time.Since(start)
	}
	return slices.Min(d[:])
}

// costRatioWithin measures a cost ratio up to three times and fails when it
// never comes within max. The ratios bounded here sit well inside their
// bounds and sat at several times them before the bulk build, so a regression
// fails every attempt; a neighbouring package's test taking the CPU for one
// attempt does not.
func costRatioWithin(t *testing.T, what string, max float64, measure func() (cost, base time.Duration)) {
	t.Helper()
	for attempt := 1; ; attempt++ {
		cost, base := measure()
		ratio := float64(cost) / float64(base)
		t.Logf("%s: %v against %v, ratio %.1f", what, cost, base, ratio)
		if ratio <= max {
			return
		}
		if attempt == 3 {
			t.Fatalf("%s: ratio %.1f (%v against %v), want at most %.0f", what, ratio, cost, base, max)
		}
	}
}

// TestIndexBuildScaling fails when the bulk build stops being O(n log n):
// four times the rows must cost under ten times the time (n log n predicts
// 4.5; a build that re-sorts the run every pendingMergeLimit postings
// measures about 18).
func TestIndexBuildScaling(t *testing.T) {
	costRatioWithin(t, "sorted build of 80,000 rows against 20,000", 10, func() (time.Duration, time.Duration) {
		return sortedBuildTime(t, 80_000), sortedBuildTime(t, 20_000)
	})
}

// TestIndexMaintenanceCost bounds what a sorted index adds to the write
// path of a durable store: 20,000 single-row inserts of six-attribute records
// into a table with a sorted index on the one random-valued attribute cost at
// most three times the same inserts into a table without (fastest of three
// each, the two alternating; measured 1.6 to 2.2). Re-sorting the run at
// every merge measures 28 times.
func TestIndexMaintenanceCost(t *testing.T) {
	const n = 20_000
	rng := rand.New(rand.NewSource(23))
	recs := make([]model.Record, n)
	for i := range recs {
		recs[i] = model.Record{
			"v":    model.Float(rng.Float64() * 1000),
			"id":   model.Int(int64(i)),
			"name": model.String(fmt.Sprintf("item-%06d", i)),
			"cat":  model.String(fmt.Sprintf("c%02d", i%40)),
			"qty":  model.Int(int64(rng.Intn(500))),
			"at":   model.Time(time.Unix(1_700_000_000+int64(i), 0)),
		}
	}
	load := func(indexed bool) time.Duration {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		tb, _ := s.CreateTable("t")
		if indexed {
			tb.CreateIndex("v")
		}
		start := time.Now()
		for _, r := range recs {
			if _, err := insert(tb, r); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	costRatioWithin(t, "20,000 inserts with a sorted index against without", 3, func() (time.Duration, time.Duration) {
		var indexed, plain [3]time.Duration
		for i := range indexed {
			plain[i], indexed[i] = load(false), load(true)
		}
		return slices.Min(indexed[:]), slices.Min(plain[:])
	})
}

func TestZonePruning(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")
	const n = 8 * ZoneSegmentRows
	for i := 0; i < n; i++ {
		insert(tb, rec("n", i, "s", fmt.Sprintf("k%05d", i)))
	}
	now := s.Now()
	p := model.Conjunct{Attr: "n", Op: "<", Val: model.Int(100)}
	// Values are clustered by insertion order, so all but the first segment
	// refute n < 100.
	c := tb.ScanWhere(now, []model.Conjunct{p}, ScanOptions{NoIndex: true, NoAuto: true})
	recs, _ := drain(&c)
	got, info := matching(p, recs), c.Info()
	if info.Segments != 8 {
		t.Fatalf("Segments = %d, want 8", info.Segments)
	}
	if info.Pruned != 7 {
		t.Fatalf("Pruned = %d, want 7", info.Pruned)
	}
	sameRecords(t, "pruned scan", got, oracle(tb, now, p))

	// An attribute absent from a segment prunes it outright.
	insert(tb, rec("extra", 1))
	now = s.Now()
	pe := model.Conjunct{Attr: "extra", Op: "=", Val: model.Int(1)}
	info = scanInfo(tb, now, []model.Conjunct{pe}, ScanOptions{NoIndex: true, NoAuto: true})
	if info.Pruned != 8 {
		t.Fatalf("Pruned = %d, want 8 (attr absent from first 8 segments)", info.Pruned)
	}

	// Deletes widen nothing; vacuum narrows the maps back down.
	for id := RowID(1); id <= ZoneSegmentRows; id++ {
		del(tb, id)
	}
	tb.Vacuum(s.Now())
	info = scanInfo(tb, s.Now(), []model.Conjunct{p}, ScanOptions{NoIndex: true, NoAuto: true})
	if info.Pruned != info.Segments {
		t.Fatalf("after vacuum of matching segment: Pruned = %d of %d", info.Pruned, info.Segments)
	}
}

// TestAutoIndexLifecycle exercises self-curation end to end: repeated
// predicates on a big-enough table create an index, range traffic is served
// by that same index, and vacuums after the traffic stops drop it again.
func TestAutoIndexLifecycle(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")
	for i := 0; i < 2*autoIndexMinRows; i++ {
		insert(tb, rec("a", i%16, "b", i))
	}
	now := s.Now()
	scan := func(p model.Conjunct) ScanInfo {
		return scanInfo(tb, now, []model.Conjunct{p}, ScanOptions{})
	}
	eq := model.Conjunct{Attr: "a", Op: "=", Val: model.Int(3)}
	for i := 0; i < autoIndexAccesses-1; i++ {
		if info := scan(eq); info.Index != "" {
			t.Fatalf("access %d: index %q created too early", i, info.Index)
		}
	}
	if info := scan(eq); info.Index != "t.a" {
		t.Fatalf("after %d accesses: Index = %q, want t.a", autoIndexAccesses, info.Index)
	}
	stats := tb.IndexStats()
	if len(stats) != 1 || !stats[0].Auto || stats[0].Kind != "sorted" {
		t.Fatalf("IndexStats = %+v", stats)
	}

	// Range traffic is served by the index equality traffic created, with
	// the same answer as a scan without it.
	rg := model.Conjunct{Attr: "a", Op: "<", Val: model.Int(4)}
	if info := scan(rg); info.Index != "t.a" {
		t.Fatalf("after range access: Index = %q, want t.a", info.Index)
	}
	if n := len(tb.IndexStats()); n != 1 {
		t.Fatalf("range traffic changed the index set, stats %v", tb.IndexStats())
	}
	sameRecords(t, "range via t.a", answerVia(tb, now, rg, ScanOptions{}), oracle(tb, now, rg))

	// No further hits: the first vacuum still sees fresh hits, then two
	// hit-free vacuums strike it out.
	tb.Vacuum(s.Now())
	tb.Vacuum(s.Now())
	if n := len(tb.IndexStats()); n != 1 {
		t.Fatalf("index dropped one vacuum too early (stats %d)", n)
	}
	tb.Vacuum(s.Now())
	if n := len(tb.IndexStats()); n != 0 {
		t.Fatalf("cold auto index not dropped, stats %v", tb.IndexStats())
	}

	// Pinned indexes are never cold-dropped.
	tb.CreateIndex("b")
	for i := 0; i < indexColdStrikes+2; i++ {
		tb.Vacuum(s.Now())
	}
	if n := len(tb.IndexStats()); n != 1 {
		t.Fatalf("pinned index dropped, stats %d", n)
	}
	// Tiny tables never earn indexes.
	small, _ := s.CreateTable("small")
	for i := 0; i < autoIndexMinRows/2; i++ {
		insert(small, rec("a", i))
	}
	for i := 0; i < 3*autoIndexAccesses; i++ {
		scanInfo(small, s.Now(), []model.Conjunct{eq}, ScanOptions{})
	}
	if n := len(small.IndexStats()); n != 0 {
		t.Fatalf("tiny table earned an index, stats %d", n)
	}
}

// TestIndexConcurrent runs writers, vacuums, and indexed readers in
// parallel; meaningful mainly under -race, with a final differential check.
func TestIndexConcurrent(t *testing.T) {
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")
	tb.CreateIndex("k")
	tb.CreateIndex("v")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []RowID
			for i := 0; i < 400; i++ {
				switch {
				case len(mine) == 0 || rng.Intn(3) > 0:
					id, _ := insert(tb, rec("k", rng.Intn(20), "v", float64(rng.Intn(100))))
					mine = append(mine, id)
				case rng.Intn(2) == 0:
					update(tb, mine[rng.Intn(len(mine))], rec("k", rng.Intn(20), "v", float64(rng.Intn(100))))
				default:
					j := rng.Intn(len(mine))
					del(tb, mine[j])
					mine = append(mine[:j], mine[j+1:]...)
				}
			}
		}(int64(w + 1))
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			p := model.Conjunct{Attr: "k", Op: "=", Val: model.Int(int64(i % 20))}
			answerVia(tb, s.Now(), p, ScanOptions{})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			tb.Vacuum(s.Now())
		}
	}()
	wg.Wait()
	now := s.Now()
	for _, p := range []model.Conjunct{
		{Attr: "k", Op: "=", Val: model.Int(5)},
		{Attr: "v", Op: ">", Val: model.Float(50)},
	} {
		sameRecords(t, fmt.Sprintf("%s %s", p.Attr, p.Op), answerVia(tb, now, p, ScanOptions{}), oracle(tb, now, p))
	}
}

// TestWALRecoveryRebuildsZones checks that zone maps exist (and prune) after
// reopening a durable store, where recovery installs rows without going
// through the write path.
func TestWALRecoveryRebuildsZones(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := s.CreateTable("t")
	const n = 2 * ZoneSegmentRows
	for i := 0; i < n; i++ {
		insert(tb, rec("n", i))
	}
	schemaVer := s.SchemaVersion()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.SchemaVersion() != schemaVer {
		t.Fatalf("SchemaVersion = %d, want %d", s2.SchemaVersion(), schemaVer)
	}
	tb2, _ := s2.Table("t")
	p := model.Conjunct{Attr: "n", Op: ">=", Val: model.Int(n - 10)}
	info := scanInfo(tb2, s2.Now(), []model.Conjunct{p}, ScanOptions{NoIndex: true, NoAuto: true})
	if info.Pruned != 1 {
		t.Fatalf("after recovery: Pruned = %d, want 1", info.Pruned)
	}
	sameRecords(t, "recovered", answerVia(tb2, s2.Now(), p, ScanOptions{}), oracle(tb2, s2.Now(), p))
}
