// Package cluster implements the paper's OS.1: "Given the abundance of
// instance relations and semantic relationships, what are the data
// clustering opportunities to improve retrieval, access locality, and
// compression? Is it possible to develop dynamic instance-level,
// fine-grained clustering in the presence of the enriched data model?"
//
// Three pieces:
//   - Tracker observes which rows are accessed together (per query or
//     transaction) and maintains a co-access graph.
//   - Label propagation over that graph yields instance-level clusters;
//     LayoutFromClusters packs cluster members into adjacent positions, and
//     PagesTouched quantifies the locality win against any layout.
//   - Column compression codecs (dictionary, run-length, delta) measure
//     the compression side of the claim; clustering improves run lengths
//     by putting similar records next to each other.
package cluster

import (
	"sort"

	"scdb/internal/storage"
)

// pair is an unordered row pair (a < b).
type pair struct {
	a, b storage.RowID
}

func mkPair(x, y storage.RowID) pair {
	if x > y {
		x, y = y, x
	}
	return pair{x, y}
}

// Tracker maintains the co-access graph. It is not safe for concurrent use;
// callers serialize (the curation pipeline owns it).
type Tracker struct {
	counts map[pair]int
	rows   map[storage.RowID]bool
	// MaxSetSize caps the quadratic blow-up of one observation; larger
	// access sets are counted pairwise only across a prefix. Zero means
	// the default 64.
	MaxSetSize int
}

// NewTracker creates an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{counts: map[pair]int{}, rows: map[storage.RowID]bool{}}
}

// Observe records that the rows were touched by one query/transaction.
func (t *Tracker) Observe(ids []storage.RowID) {
	maxSet := t.MaxSetSize
	if maxSet == 0 {
		maxSet = 64
	}
	if len(ids) > maxSet {
		ids = ids[:maxSet]
	}
	for _, id := range ids {
		t.rows[id] = true
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[i] == ids[j] {
				continue
			}
			t.counts[mkPair(ids[i], ids[j])]++
		}
	}
}

// Rows returns every observed row, ascending.
func (t *Tracker) Rows() []storage.RowID {
	out := make([]storage.RowID, 0, len(t.rows))
	for id := range t.rows {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Cluster runs deterministic label propagation over the co-access graph:
// every row starts in its own cluster; in each round (ascending row order)
// a row adopts the label with the greatest incident co-access weight (ties:
// smallest label). Converges or stops after maxRounds. Returns the label of
// each observed row.
func (t *Tracker) Cluster(maxRounds int) map[storage.RowID]int {
	if maxRounds <= 0 {
		maxRounds = 10
	}
	rows := t.Rows()
	label := make(map[storage.RowID]int, len(rows))
	for i, id := range rows {
		label[id] = i
	}
	// Adjacency.
	adj := map[storage.RowID][]struct {
		other  storage.RowID
		weight int
	}{}
	for p, w := range t.counts {
		adj[p.a] = append(adj[p.a], struct {
			other  storage.RowID
			weight int
		}{p.b, w})
		adj[p.b] = append(adj[p.b], struct {
			other  storage.RowID
			weight int
		}{p.a, w})
	}
	for id := range adj {
		nbrs := adj[id]
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i].other < nbrs[j].other })
	}

	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, id := range rows {
			weights := map[int]int{}
			for _, nb := range adj[id] {
				weights[label[nb.other]] += nb.weight
			}
			if len(weights) == 0 {
				continue
			}
			best, bestW := label[id], 0
			// Deterministic: iterate labels ascending.
			labels := make([]int, 0, len(weights))
			for l := range weights {
				labels = append(labels, l)
			}
			sort.Ints(labels)
			for _, l := range labels {
				if weights[l] > bestW {
					best, bestW = l, weights[l]
				}
			}
			if bestW > 0 && best != label[id] {
				label[id] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return label
}
