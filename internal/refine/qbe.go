package refine

import (
	"sort"

	"scdb/internal/er"
	"scdb/internal/model"
)

// QBE implements FS.7: "extend the query-by-example formalism for filling
// missing data ... so the query answer is partially computed, and the
// partial answer becomes an example with incompleteness (missing values)
// for raising/refining additional queries."
//
// Completion is a k-nearest-neighbour vote: rows similar to the example on
// its filled attributes contribute weighted votes for each missing
// attribute's value.

// Completion is the result of completing one example.
type Completion struct {
	// Completed is the example with missing attributes filled where
	// evidence exists (attributes without evidence stay null).
	Completed model.Record
	// Confidence gives the vote share behind each filled attribute.
	Confidence map[string]model.Fuzzy
	// Support counts the neighbour rows that voted for each attribute.
	Support map[string]int
}

// exampleSimilarity scores a candidate row against the example's filled
// attributes: the mean per-attribute string similarity (absent candidate
// attributes score 0).
func exampleSimilarity(example, row model.Record) float64 {
	total, n := 0.0, 0
	for k, v := range example {
		if v.IsNull() {
			continue
		}
		n++
		rv := row.Get(k)
		if rv.IsNull() {
			continue
		}
		if model.Equal(v, rv) {
			total += 1
			continue
		}
		total += er.StringSim(v.Text(), rv.Text())
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// CompleteByExample fills the example's null (or absent-but-requested)
// attributes from the k most similar rows. want lists the attributes to
// complete; if empty, every null attribute of the example is completed.
func CompleteByExample(rows []model.Record, example model.Record, want []string, k int) Completion {
	if k <= 0 {
		k = 5
	}
	if len(want) == 0 {
		for _, key := range example.Keys() {
			if example[key].IsNull() {
				want = append(want, key)
			}
		}
	}
	comp := Completion{
		Completed:  example.Clone(),
		Confidence: map[string]model.Fuzzy{},
		Support:    map[string]int{},
	}
	if len(want) == 0 || len(rows) == 0 {
		return comp
	}

	type scored struct {
		rec   model.Record
		score float64
	}
	var cands []scored
	for _, row := range rows {
		if s := exampleSimilarity(example, row); s > 0 {
			cands = append(cands, scored{row, s})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	if len(cands) > k {
		cands = cands[:k]
	}

	for _, attr := range want {
		votes := map[uint64]float64{}
		vals := map[uint64]model.Value{}
		support := map[uint64]int{}
		total := 0.0
		for _, c := range cands {
			v := c.rec.Get(attr)
			if v.IsNull() {
				continue
			}
			h := v.Hash()
			votes[h] += c.score
			support[h]++
			vals[h] = v
			total += c.score
		}
		if total == 0 {
			continue
		}
		// Deterministic winner: highest vote, ties by value order.
		type entry struct {
			v    model.Value
			w    float64
			supp int
		}
		var list []entry
		for h, w := range votes {
			list = append(list, entry{vals[h], w, support[h]})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].w != list[j].w {
				return list[i].w > list[j].w
			}
			return model.Less(list[i].v, list[j].v)
		})
		win := list[0]
		comp.Completed[attr] = win.v
		comp.Confidence[attr] = model.Fuzzy(win.w / total).Clamp()
		comp.Support[attr] = win.supp
	}
	return comp
}
