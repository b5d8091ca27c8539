package storage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"scdb/internal/model"
)

// TestZonePruneDifferential: a zone-only scan (no index) answers exactly
// like the same scan with pruning off and like the full-scan oracle, for
// every op against every literal and for IN lists, over segments that each
// draw from their own subset of a pool mixing every comparison class with
// NaN, -0, lists, nulls and deletes. Pruning must only ever skip segments
// that hold no match.
func TestZonePruneDifferential(t *testing.T) {
	epoch := time.Unix(1_700_000_000, 0)
	// Each class's values sit in a per-segment window, so bounds differ
	// from segment to segment; seg -1 and 9 give literals outside them all.
	classes := []func(rng *rand.Rand, seg int) model.Value{
		func(rng *rand.Rand, seg int) model.Value { return model.Int(int64(seg*100 + rng.Intn(60))) },
		func(rng *rand.Rand, seg int) model.Value { return model.Float(float64(seg*100) + 60*rng.Float64()) },
		func(*rand.Rand, int) model.Value { return model.Float(math.NaN()) },
		func(*rand.Rand, int) model.Value { return model.Float(math.Copysign(0, -1)) },
		func(rng *rand.Rand, seg int) model.Value {
			return model.String(fmt.Sprintf("s%d%02d", seg+1, rng.Intn(60)))
		},
		func(rng *rand.Rand, seg int) model.Value { return model.Bool(seg%2 == 0 || rng.Intn(2) == 0) },
		func(rng *rand.Rand, seg int) model.Value {
			return model.Time(epoch.Add(time.Duration(seg*100+rng.Intn(60)) * time.Hour))
		},
		func(rng *rand.Rand, seg int) model.Value {
			return model.Bytes([]byte{byte(seg + 1), byte(rng.Intn(60))})
		},
		func(rng *rand.Rand, seg int) model.Value {
			return model.Ref(model.EntityID(seg*100 + 100 + rng.Intn(60)))
		},
		func(rng *rand.Rand, seg int) model.Value { return model.List(model.Int(int64(seg)), model.String("x")) },
		func(*rand.Rand, int) model.Value { return model.Null() },
	}
	const segs = 4
	lrng := rand.New(rand.NewSource(0))
	var lits []model.Value
	for _, seg := range []int{-1, 0, 2, 9} {
		for _, c := range classes {
			lits = append(lits, c(lrng, seg))
		}
	}
	lits = append(lits, model.Int(0), model.Bool(false), model.Bool(true))
	var preds []model.Conjunct
	for _, lit := range lits {
		if lit.IsNull() {
			continue // a comparison with a null literal is never pushed
		}
		for _, op := range []string{"=", "<", "<=", ">", ">="} {
			preds = append(preds, model.Conjunct{Attr: "a", Op: op, Val: lit})
		}
	}
	for i := 0; i+3 <= len(lits); i += 3 {
		preds = append(preds, model.Conjunct{Attr: "a", Op: "in", Vals: lits[i : i+3]})
	}

	zoneOnly := ScanOptions{NoIndex: true, NoAuto: true}
	unpruned := ScanOptions{NoIndex: true, NoAuto: true, NoPrune: true}
	var pruned, considered int
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, _ := Open("")
		tb, _ := s.CreateTable("t")
		for seg := 0; seg < segs; seg++ {
			var own []func(*rand.Rand, int) model.Value
			for len(own) == 0 {
				for _, c := range classes {
					if rng.Intn(3) == 0 {
						own = append(own, c)
					}
				}
			}
			recs := make([]model.Record, ZoneSegmentRows)
			for i := range recs {
				recs[i] = model.Record{"a": own[rng.Intn(len(own))](rng, seg), "i": model.Int(int64(i))}
			}
			if _, err := tb.InsertBatch(recs); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < segs*ZoneSegmentRows/16; i++ {
			del(tb, RowID(1+rng.Intn(segs*ZoneSegmentRows)))
		}
		now := s.Now()
		all := scanAt(tb, now)
		for _, p := range preds {
			label := fmt.Sprintf("seed %d: a %s %v %v", seed, p.Op, p.Val, p.Vals)
			c := tb.ScanWhere(now, []model.Conjunct{p}, zoneOnly)
			recs, _ := drain(&c)
			want := matching(p, all)
			sameRecords(t, label+": pruned scan", matching(p, recs), want)
			sameRecords(t, label+": unpruned scan", answerVia(tb, now, p, unpruned), want)
			pruned, considered = pruned+c.Info().Pruned, considered+c.Info().Segments
		}
		s.Close()
	}
	t.Logf("%d conjuncts over 4 seeds: %d of %d segments pruned", len(preds), pruned, considered)
	if pruned == 0 {
		t.Fatal("no segment pruned")
	}

	// Classes other than numbers and strings have bounds: a time range
	// prunes the segments that hold only earlier times. A NaN literal's
	// orderings hold for no row, so a segment without NaN is pruned.
	s, _ := Open("")
	defer s.Close()
	tb, _ := s.CreateTable("t")
	recs := make([]model.Record, segs*ZoneSegmentRows)
	for i := range recs {
		recs[i] = model.Record{"t": model.Time(epoch.Add(time.Duration(i) * time.Second)), "a": model.Int(int64(i))}
	}
	if _, err := tb.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	now := s.Now()
	for _, c := range []struct {
		p      model.Conjunct
		pruned int
	}{
		{model.Conjunct{Attr: "t", Op: ">=", Val: model.Time(epoch.Add(2 * ZoneSegmentRows * time.Second))}, 2},
		{model.Conjunct{Attr: "t", Op: ">", Val: model.Time(epoch.Add(time.Hour * 24))}, segs},
		{model.Conjunct{Attr: "a", Op: "<", Val: model.Float(math.NaN())}, segs},
		{model.Conjunct{Attr: "a", Op: ">=", Val: model.Float(math.NaN())}, 0},
	} {
		info := scanInfo(tb, now, []model.Conjunct{c.p}, zoneOnly)
		if info.Pruned != c.pruned {
			t.Errorf("%s %s %v: pruned %d of %d segments, want %d", c.p.Attr, c.p.Op, c.p.Val, info.Pruned, info.Segments, c.pruned)
		}
		sameRecords(t, fmt.Sprintf("%s %s %v", c.p.Attr, c.p.Op, c.p.Val), answerVia(tb, now, c.p, zoneOnly), oracle(tb, now, c.p))
	}
}
