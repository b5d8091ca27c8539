package storage

import (
	"fmt"
	"math"
	"testing"

	"scdb/internal/model"
)

// FuzzIndexMaintenance drives a table through a byte-coded op sequence —
// insert, update, delete, vacuum, scan — and asserts after every scan that
// the indexed access path and the zone-only one (no index, zone maps
// pruning) answer exactly like a full-scan oracle at the same CSN
// (indexMaintenance).
func FuzzIndexMaintenance(f *testing.F) {
	for _, seed := range indexMaintenanceSeeds {
		f.Add(seed)
	}
	f.Fuzz(indexMaintenance)
}

// indexMaintenanceSeeds are FuzzIndexMaintenance's seeds.
var indexMaintenanceSeeds = [][]byte{
	{0, 1, 0, 2, 0, 3, 4, 0},
	{0, 9, 1, 0, 2, 0, 3, 0, 4, 1, 0, 10, 4, 2},
	{0, 0, 0, 0, 0, 0, 0, 0, 1, 9, 1, 9, 2, 0, 3, 3, 4, 0, 4, 1, 4, 2},
}

// TestFuzzSeedsDirect runs the fuzz body over its seeds without the fuzzing
// engine, so every plain `go test` covers them.
func TestFuzzSeedsDirect(t *testing.T) {
	for i, seed := range indexMaintenanceSeeds {
		t.Run(fmt.Sprint(i), func(t *testing.T) { indexMaintenance(t, seed) })
	}
}

// indexMaintenance is FuzzIndexMaintenance's body. Each op consumes two
// bytes: an opcode selector and a value selector; the value pool
// deliberately mixes ints, floats, NaN, strings, lists, and nulls to hit
// every comparison-semantics edge.
func indexMaintenance(t *testing.T, data []byte) {
	s, _ := Open("")
	defer s.Close()
	tb, err := s.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tb.CreateIndex("a")
	tb.CreateIndex("b")

	pool := []model.Value{
		model.Int(0), model.Int(1), model.Int(7), model.Int(-3),
		model.Float(0), model.Float(math.Copysign(0, -1)), model.Float(2.5),
		model.Float(math.NaN()), model.String("x"), model.String("y"),
		model.List(model.Int(1)), model.Null(),
	}
	preds := []model.Conjunct{
		{Attr: "a", Op: "=", Val: model.Int(1)},
		{Attr: "a", Op: "=", Val: model.Float(0)},
		{Attr: "a", Op: "=", Val: model.Float(math.NaN())},
		{Attr: "a", Op: "in", Vals: []model.Value{model.Int(7), model.String("x"), model.Float(math.NaN())}},
		{Attr: "b", Op: "<", Val: model.Float(2)},
		{Attr: "b", Op: ">=", Val: model.Int(0)},
		{Attr: "b", Op: "=", Val: model.String("y")},
	}
	check := func(step int) {
		now := s.Now()
		for _, p := range preds {
			label := fmt.Sprintf("step %d: %s %s %s", step, p.Attr, p.Op, p.Val)
			want := oracle(tb, now, p)
			sameRecords(t, label+": indexed path", answerVia(tb, now, p, ScanOptions{}), want)
			sameRecords(t, label+": zone-only path", answerVia(tb, now, p, ScanOptions{NoIndex: true, NoAuto: true}), want)
		}
	}

	var live []RowID
	for i := 0; i+1 < len(data); i += 2 {
		op, sel := data[i], int(data[i+1])
		v := pool[sel%len(pool)]
		w := pool[(sel/len(pool))%len(pool)]
		switch op % 5 {
		case 0:
			id, err := insert(tb, model.Record{"a": v, "b": w})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		case 1:
			if len(live) > 0 {
				if err := update(tb, live[sel%len(live)], model.Record{"a": w, "b": v}); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			if len(live) > 0 {
				j := sel % len(live)
				if err := del(tb, live[j]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:j], live[j+1:]...)
			}
		case 3:
			tb.Vacuum(s.Now())
		case 4:
			check(i)
		}
	}
	check(len(data))
	for _, st := range tb.IndexStats() {
		if st.Entries < 0 {
			t.Fatalf("negative entry count: %+v", st)
		}
	}
}
