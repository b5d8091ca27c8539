package er

import (
	"testing"

	"scdb/internal/model"
)

// twoShardResolvers simulates the router's exchange loop over two shards'
// resolvers: every entity added to either resolver, then all digests pulled
// from watermark zero and folded into one exchange.
func exchangeOver(t *testing.T, cfg Config, shards ...[]*model.Entity) (*Exchange, []*Resolver) {
	t.Helper()
	x := NewExchange(cfg)
	var rs []*Resolver
	for si, ents := range shards {
		r := NewResolver(cfg)
		for _, e := range ents {
			r.Add(e)
		}
		rs = append(rs, r)
		x.AddBatch(si, r.DigestsSince(0, 0))
	}
	return x, rs
}

func TestExchangeMergesAcrossShards(t *testing.T) {
	// The duplicate pair lives on different shards AND different sources,
	// so no local resolver ever compares it.
	x, _ := exchangeOver(t, Config{},
		[]*model.Entity{
			ent(1, "drugbank", map[string]string{"name": "Methotrexate"}),
			ent(2, "drugbank", map[string]string{"name": "Warfarin"}),
		},
		[]*model.Entity{
			ent(3, "ctd", map[string]string{"chemical": "Methotrexate"}),
		},
	)
	if !x.SameRef(RefKey{Source: "drugbank", Key: "k1"}, RefKey{Source: "ctd", Key: "k3"}) {
		t.Fatal("cross-shard duplicate not merged")
	}
	if x.SameRef(RefKey{Source: "drugbank", Key: "k2"}, RefKey{Source: "ctd", Key: "k3"}) {
		t.Fatal("distinct entities merged")
	}
	st := x.Stats()
	if st.CrossMerges != 1 {
		t.Errorf("cross merges = %d, want 1", st.CrossMerges)
	}
	if st.Clusters != 2 {
		t.Errorf("clusters = %d, want 2 (merged pair + Warfarin)", st.Clusters)
	}
	if st.Comparisons == 0 || st.Candidates == 0 || st.Accepted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestExchangeSkipsSameShardAndSameSource(t *testing.T) {
	// Same shard: the local resolver's job; the exchange must not score it.
	x, rs := exchangeOver(t, Config{},
		[]*model.Entity{
			ent(1, "drugbank", map[string]string{"name": "Methotrexate"}),
			ent(2, "ctd", map[string]string{"chemical": "Methotrexate"}),
		},
	)
	if x.Stats().Comparisons != 0 {
		t.Errorf("same-shard pair scored by the exchange: %+v", x.Stats())
	}
	// But the local merge still shapes the global cluster structure.
	if !x.SameRef(RefKey{Source: "drugbank", Key: "k1"}, RefKey{Source: "ctd", Key: "k2"}) {
		t.Fatal("local merge lost in exchange")
	}
	if got := x.Stats().CrossMerges; got != 0 {
		t.Errorf("cross merges = %d, want 0 (merge was local)", got)
	}
	if rs[0].Stats().Matches != 1 {
		t.Fatalf("local resolver matches = %d", rs[0].Stats().Matches)
	}

	// Same source on different shards never matches (source keys are
	// unique within a source).
	x2, _ := exchangeOver(t, Config{},
		[]*model.Entity{ent(1, "drugbank", map[string]string{"name": "Methotrexate"})},
		[]*model.Entity{ent(2, "drugbank", map[string]string{"name": "Methotrexate"})},
	)
	if x2.Stats().Comparisons != 0 || x2.Stats().CrossMerges != 0 {
		t.Errorf("same-source cross-shard pair scored: %+v", x2.Stats())
	}
}

func TestExchangeIdempotentAndIncremental(t *testing.T) {
	x := NewExchange(Config{})
	r0 := NewResolver(Config{})
	r1 := NewResolver(Config{})
	r0.Add(ent(1, "drugbank", map[string]string{"name": "Methotrexate"}))
	b0 := r0.DigestsSince(0, 0)
	x.AddBatch(0, b0)

	// Incremental pull: only the new entity ships.
	r1.Add(ent(2, "ctd", map[string]string{"chemical": "Methotrexate"}))
	b1 := r1.DigestsSince(0, 0)
	if len(b1.Digests) != 1 || b1.Ents != 1 {
		t.Fatalf("batch = %+v", b1)
	}
	x.AddBatch(1, b1)
	r1.Add(ent(3, "ctd", map[string]string{"chemical": "Warfarin"}))
	b2 := r1.DigestsSince(b1.Ents, b1.Matches)
	if len(b2.Digests) != 1 || b2.Digests[0].Key != "k3" {
		t.Fatalf("incremental batch re-shipped: %+v", b2)
	}
	x.AddBatch(1, b2)

	want := x.Stats()
	if want.CrossMerges != 1 {
		t.Fatalf("cross merges = %d, want 1", want.CrossMerges)
	}
	// Replaying everything from watermark zero (a router restart) changes
	// nothing: digests dedup by (source, key).
	x.AddBatch(0, r0.DigestsSince(0, 0))
	x.AddBatch(1, r1.DigestsSince(0, 0))
	if got := x.Stats(); got != want {
		t.Errorf("replay changed stats: %+v vs %+v", got, want)
	}
}
