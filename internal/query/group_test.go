package query

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"scdb/internal/model"
)

// TestGroupCollision: groups whose key values differ stay apart when their
// hashes collide. The per-morsel tables are built with hash functions that
// make every key, or a third of them, collide, then merged in morsel order;
// each group's keys, row count and aggregates must equal a serial oracle
// that finds groups by model.Equal alone.
func TestGroupCollision(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sh := &rowShape{cols: []string{"k", "j", "v"}}
	keyPool := []model.Value{
		model.Null(), model.Int(1), model.Int(2), model.Float(2), model.Float(2.5),
		model.String("a"), model.String("b"), model.String(""), model.Bool(true),
	}
	rows := make([]Row, 500)
	for i := range rows {
		v := model.Int(int64(rng.Intn(50)))
		if rng.Intn(7) == 0 {
			v = model.Null()
		}
		rows[i] = Row{sh: sh, vals: []model.Value{
			keyPool[rng.Intn(len(keyPool))], keyPool[rng.Intn(3)], v,
		}}
	}
	n := &AggregateNode{GroupBy: []Expr{&ColRef{Name: "k"}, &ColRef{Name: "j"}}}
	v := &ColRef{Name: "v"}
	calls := []*Call{
		{Name: "COUNT", Args: []Expr{v}}, {Name: "SUM", Args: []Expr{v}},
		{Name: "MIN", Args: []Expr{v}}, {Name: "MAX", Args: []Expr{v}},
	}
	x := &execCtx{}

	// The oracle: groups in first-encounter order, found by a linear scan.
	type group struct {
		keys []model.Value
		vals []model.Value
	}
	var want []*group
	for _, r := range rows {
		keys := r.vals[:2]
		i := slices.IndexFunc(want, func(g *group) bool { return slices.EqualFunc(g.keys, keys, model.Equal) })
		if i < 0 {
			i = len(want)
			want = append(want, &group{keys: keys})
		}
		want[i].vals = append(want[i].vals, r.vals[2])
	}
	var oracle strings.Builder
	for _, g := range want {
		var nonNull []model.Value
		var sum int64
		for _, v := range g.vals {
			if !v.IsNull() {
				nonNull = append(nonNull, v)
				i, _ := v.AsInt()
				sum += i
			}
		}
		slices.SortFunc(nonNull, func(a, b model.Value) int {
			c, _ := model.Compare(a, b)
			return c
		})
		agg := []model.Value{model.Int(int64(len(nonNull))), model.Null(), model.Null(), model.Null()}
		if len(nonNull) > 0 {
			agg[1], agg[2], agg[3] = model.Int(sum), nonNull[0], nonNull[len(nonNull)-1]
		}
		fmt.Fprintln(&oracle, g.keys, len(g.vals), agg)
	}

	hashes := map[string]func([]model.Value) uint64{
		"keysHash":  keysHash,
		"constant":  func([]model.Value) uint64 { return 42 },
		"one third": func(k []model.Value) uint64 { return keysHash(k) % 3 },
	}
	for name, hash := range hashes {
		for _, size := range []int{1, 7, 64, len(rows)} {
			var partials []*groupTable
			for lo := 0; lo < len(rows); lo += size {
				gt := newGroupTable(len(n.GroupBy), len(calls), 0, hash)
				if err := x.groupRows(gt, n, calls, rows[lo:min(lo+size, len(rows))]); err != nil {
					t.Fatal(err)
				}
				partials = append(partials, gt)
			}
			total := mergeGroups(partials, calls)
			var got strings.Builder
			for i := range total.groups {
				g, states := &total.groups[i], total.statesOf(i)
				agg := make([]model.Value, len(calls))
				for c, call := range calls {
					var err error
					if agg[c], err = finalizeAgg(call, g, &states[c]); err != nil {
						t.Fatal(err)
					}
				}
				fmt.Fprintln(&got, total.keysOf(i), g.n, agg)
			}
			if got.String() != oracle.String() {
				t.Errorf("hash %s, morsels of %d: groups\n%s\nserial oracle\n%s", name, size, got.String(), oracle.String())
			}
		}
	}
}
