package er

import (
	"encoding/json"
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

// TestNoEvidenceNeverMatches: an entity without a single token — every
// attribute null, empty or punctuation — is no evidence, and two of them are
// not a match. They used to score 1 wherever candidate generation paired
// them: the ANN index (both embed to the zero vector and share every bucket)
// and the quadratic baseline; token blocking was spared only because they
// have no block key. Across two shards it is the same, and it also covers
// the empty placeholder the exchange registers for a merge whose digest has
// not arrived.
func TestNoEvidenceNeverMatches(t *testing.T) {
	modes := map[string]Config{
		"token":      {},
		"ann":        {Blocking: BlockingANN},
		"both":       {Blocking: BlockingBoth},
		"noblocking": {DisableBlocking: true},
	}
	null := &model.Entity{ID: 1, Key: "k1", Source: "s1", Attrs: model.Record{"x": model.Null()}}
	bare := &model.Entity{ID: 2, Key: "k2", Source: "s2", Attrs: model.Record{}}
	dots := &model.Entity{ID: 3, Key: "k3", Source: "s3", Attrs: model.Record{"x": model.String("--- ...")}}
	for name, cfg := range modes {
		r := NewResolver(cfg)
		if m := r.AddAll([]*model.Entity{null, bare, dots}); len(m) != 0 || len(r.Clusters()) != 0 {
			t.Errorf("%s: entities without evidence merged: %v", name, m)
		}

		x, _ := exchangeOver(t, cfg, []*model.Entity{null}, []*model.Entity{bare, dots})
		if st := x.Stats(); st.Digests != 3 || st.Accepted != 0 || st.CrossMerges != 0 || st.Clusters != 3 {
			t.Errorf("%s: exchange over entities without evidence: %+v", name, st)
		}

		// Each shard reports a local merge of two entities whose digests
		// never came; the four placeholders stay two clusters.
		x = NewExchange(cfg)
		x.AddBatch(0, DigestBatch{Merges: [][2]RefKey{{{Source: "s1", Key: "a"}, {Source: "s2", Key: "b"}}}})
		x.AddBatch(1, DigestBatch{Merges: [][2]RefKey{{{Source: "s3", Key: "c"}, {Source: "s4", Key: "d"}}}})
		if st := x.Stats(); st.Accepted != 0 || st.CrossMerges != 0 || st.Clusters != 2 {
			t.Errorf("%s: exchange over placeholder digests: %+v", name, st)
		}
		if x.SameRef(RefKey{Source: "s1", Key: "a"}, RefKey{Source: "s3", Key: "c"}) {
			t.Errorf("%s: two placeholder digests merged across shards", name)
		}
	}
}

// TestDigestBatchCarriesSettings: a batch ships the blocking mode alone; a
// batch shaped by a build that shipped the tuning values beside it, or none
// at all, still decodes to its mode; and an unknown mode fails the decode.
func TestDigestBatchCarriesSettings(t *testing.T) {
	for _, c := range []struct {
		mode BlockingMode
		want string
	}{{BlockingANN, `{"blocking":"ann"}`}, {BlockingToken, `{}`}} {
		blob, err := json.Marshal(NewResolver(Config{Blocking: c.mode}).DigestsSince(0, 0).Settings)
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != c.want {
			t.Errorf("%v settings marshal to %s, want %s", c.mode, blob, c.want)
		}
	}
	for blob, want := range map[string]BlockingMode{
		`{"settings":{"threshold":0.85,"blocking":"ann","block_prefix":4,"max_block":64,"top_k":8,"embed_dim":64}}`: BlockingANN,
		`{"ents":0,"matches":0}`: BlockingToken,
	} {
		var got DigestBatch
		if err := json.Unmarshal([]byte(blob), &got); err != nil {
			t.Errorf("%s: %v", blob, err)
		} else if got.Settings.Blocking != want {
			t.Errorf("%s decodes to %v, want %v", blob, got.Settings.Blocking, want)
		}
	}
	var bad DigestBatch
	if err := json.Unmarshal([]byte(`{"settings":{"blocking":"lsh"}}`), &bad); err == nil {
		t.Error("an unknown blocking mode must fail the decode")
	}
}
