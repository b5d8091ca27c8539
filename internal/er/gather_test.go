package er_test

// The never-pair rule (same source; inside an Exchange also same shard) holds
// at candidate generation, after a token block's cap cut. These tests pin
// both halves: what is no longer gathered, and that every decision — matches,
// clusters, comparisons, block skips — is the one made when never-pairs were
// gathered and then skipped.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"scdb/internal/datagen"
	"scdb/internal/er"
	"scdb/internal/model"
	"scdb/internal/shard"
)

var gatherModes = []struct {
	name string
	cfg  er.Config
}{
	{"token", er.Config{}},
	{"ann", er.Config{Blocking: er.BlockingANN}},
	{"both", er.Config{Blocking: er.BlockingBoth}},
	{"disabled", er.Config{DisableBlocking: true}},
}

// entitiesOf numbers the datasets' records 1, 2, … in delivery order.
func entitiesOf(sets []datagen.Dataset) []*model.Entity {
	var out []*model.Entity
	for _, ds := range sets {
		for _, spec := range ds.Entities {
			out = append(out, &model.Entity{
				ID: model.EntityID(len(out) + 1), Key: spec.Key, Source: ds.Source,
				Attrs: spec.Attrs, Confidence: 1,
			})
		}
	}
	return out
}

type namedCorpus struct {
	name string
	ents []*model.Entity
}

// gatherCorpora are the multi-source fixtures: two gateways reporting the
// same 240 stations, whose vocabulary blocks overflow the block cap of 64 —
// so the order of cut and filter decides who is scored — and the exchange
// suite's dirtyCorpus, whose blocks stay under the cap.
func gatherCorpora() []namedCorpus {
	iot, _ := datagen.IoTSensors(7, 2, 240, 1, 0.3)
	return []namedCorpus{{"iot", entitiesOf(iot)}, {"dirty", dirtyCorpus()}}
}

// TestSingleSourceGathersNothing: one source is assumed duplicate-free, so
// loading it gathers no candidate in any mode — the cost of the load is the
// block lookups alone.
func TestSingleSourceGathersNothing(t *testing.T) {
	sets, _ := datagen.DirtyTables(5, 1, 3000, 1, 0.3)
	ents := entitiesOf(sets)
	for _, mode := range gatherModes {
		r := er.NewResolver(mode.cfg)
		r.AddAll(ents)
		st := r.Stats()
		if st.Candidates != 0 || st.Comparisons != 0 || st.Matches != 0 {
			t.Errorf("%s: a single-source load of %d entities gathered %d candidates, scored %d, matched %d; want 0",
				mode.name, len(ents), st.Candidates, st.Comparisons, st.Matches)
		}
		if mode.name == "token" && st.BlockSkips == 0 {
			t.Errorf("%s: no block overflowed; the load does not exercise the block cap", mode.name)
		}
	}
}

// clusterPrint fingerprints a partition: FNV-1a over the sorted clusters'
// sorted members.
func clusterPrint(clusters [][]model.EntityID) string {
	lines := make([]string, len(clusters))
	for i, cl := range clusters {
		cl = append([]model.EntityID(nil), cl...)
		sort.Slice(cl, func(a, b int) bool { return cl[a] < cl[b] })
		lines[i] = fmt.Sprint(cl)
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return fmt.Sprintf("%d:%016x", len(clusters), h.Sum64())
}

// decisions is everything a resolver decided, without the Candidates counter.
type decisions struct {
	Matches, Comparisons, BlockSkips int
	Clusters                         string
}

// TestGatherKeepsEveryDecision pins matches, clusters, comparisons and block
// skips on the multi-source fixtures to the values of the commit before the
// rule moved (ac1bd55), where never-pairs were gathered and skipped, run at
// its default block cap of 64.
func TestGatherKeepsEveryDecision(t *testing.T) {
	want := map[string]decisions{
		"token/iot":      {241, 34282, 157064, "239:6fd3a2778e1065e9"},
		"token/dirty":    {31, 759, 0, "18:b688aa2f2d07da70"},
		"ann/iot":        {228, 1915, 0, "228:954d5c7ff18fdbc1"},
		"ann/dirty":      {29, 142, 0, "17:5670a059facde390"},
		"both/iot":       {241, 35703, 157064, "239:6fd3a2778e1065e9"},
		"both/dirty":     {31, 764, 0, "18:b688aa2f2d07da70"},
		"disabled/iot":   {241, 57600, 0, "239:6fd3a2778e1065e9"},
		"disabled/dirty": {31, 785, 0, "18:b688aa2f2d07da70"},
	}
	for _, mode := range gatherModes {
		for _, corpus := range gatherCorpora() {
			r := er.NewResolver(mode.cfg)
			r.AddAll(corpus.ents)
			st := r.Stats()
			got := decisions{len(r.Matches()), st.Comparisons, st.BlockSkips, clusterPrint(r.Clusters())}
			key := mode.name + "/" + corpus.name
			if got != want[key] {
				t.Errorf("%s: decisions = %+v, want %+v", key, got, want[key])
			}
			if st.Candidates < st.Comparisons {
				t.Errorf("%s: %d candidates gathered but %d scored", key, st.Candidates, st.Comparisons)
			}
		}
	}
}

// exchangeDecisions is ExchangeStats without Candidates.
type exchangeDecisions struct {
	Digests, Comparisons, Accepted, BlockSkips, Clusters, CrossMerges int
}

// TestExchangeGatherKeepsEveryDecision is the same pin across the shard
// boundary: the corpus split over three shards by ShardOf, so most block
// neighbours of a digest are same-shard or same-source and are not gathered.
func TestExchangeGatherKeepsEveryDecision(t *testing.T) {
	want := map[string]exchangeDecisions{
		"token/iot":      {480, 22771, 165, 157064, 239, 165},
		"token/dirty":    {49, 503, 21, 0, 18, 18},
		"ann/iot":        {480, 2446, 154, 0, 252, 154},
		"ann/dirty":      {49, 107, 21, 0, 20, 18},
		"both/iot":       {480, 23894, 165, 157064, 239, 165},
		"both/dirty":     {49, 507, 21, 0, 18, 18},
		"disabled/iot":   {480, 38385, 165, 0, 239, 165},
		"disabled/dirty": {49, 518, 21, 0, 18, 18},
	}
	for _, mode := range gatherModes {
		for _, corpus := range gatherCorpora() {
			const shards = 3
			locals := make([]*er.Resolver, shards)
			for i := range locals {
				locals[i] = er.NewResolver(mode.cfg)
			}
			for _, e := range corpus.ents {
				locals[shard.ShardOf(e.Key, shards)].Add(e)
			}
			x := er.NewExchange(mode.cfg.Blocking, mode.cfg.DisableBlocking)
			for i, r := range locals {
				x.AddBatch(i, r.DigestsSince(0, 0))
			}
			st := x.Stats()
			got := exchangeDecisions{st.Digests, st.Comparisons, st.Accepted, st.BlockSkips, st.Clusters, st.CrossMerges}
			key := mode.name + "/" + corpus.name
			if got != want[key] {
				t.Errorf("%s: exchange decisions = %+v, want %+v", key, got, want[key])
			}
			if st.Candidates < st.Comparisons {
				t.Errorf("%s: %d candidates gathered but %d scored", key, st.Candidates, st.Comparisons)
			}
		}
	}
}
