package er_test

// An external test package: the corpus is split with shard.ShardOf, and
// package shard imports er.

import (
	"fmt"
	"testing"

	"scdb/internal/datagen"
	"scdb/internal/er"
	"scdb/internal/model"
	"scdb/internal/shard"
)

// handCorpus is the six-entity case the exchange was first pinned with:
// three sources, one triple, one pair and a singleton.
func handCorpus() []*model.Entity {
	mk := func(id int, source, attr, name string) *model.Entity {
		return &model.Entity{
			ID: model.EntityID(id), Key: fmt.Sprintf("k%d", id), Source: source,
			Attrs: model.Record{attr: model.String(name)}, Confidence: 1,
		}
	}
	return []*model.Entity{
		mk(1, "a", "name", "Methotrexate"),
		mk(2, "b", "drug", "Methotrexate"),
		mk(3, "c", "compound", "Methotrexate"),
		mk(4, "a", "name", "Warfarin"),
		mk(5, "b", "drug", "Warfarin"),
		mk(6, "a", "name", "Ibuprofen"),
	}
}

// dirtyCorpus is a datagen corpus of three sources with typo'd
// cross-source duplicates, small enough that no block reaches the block cap
// (the documented case where a split block can select other candidates).
func dirtyCorpus() []*model.Entity {
	sets, _ := datagen.DirtyTables(5, 3, 18, 0.8, 0.3)
	return entitiesOf(sets)
}

// TestExchangeMatchesSingleNodeClusters is the order-independence property
// the cluster differential relies on, over every candidate mode: entities
// spread over N shards by ShardOf — each shard resolving locally, the
// exchange resolving across — end in exactly the partition one resolver
// computes over the whole set.
func TestExchangeMatchesSingleNodeClusters(t *testing.T) {
	modes := []struct {
		name string
		cfg  er.Config
	}{
		{"token", er.Config{}},
		{"ann", er.Config{Blocking: er.BlockingANN}},
		{"both", er.Config{Blocking: er.BlockingBoth}},
		{"noblocking", er.Config{DisableBlocking: true}},
	}
	corpora := []struct {
		name string
		ents []*model.Entity
	}{
		{"hand", handCorpus()},
		{"dirty", dirtyCorpus()},
	}
	for _, mode := range modes {
		for _, corpus := range corpora {
			single := er.NewResolver(mode.cfg)
			single.AddAll(corpus.ents)
			if len(single.Clusters()) == 0 {
				t.Fatalf("%s/%s: the single resolver found no duplicates; the corpus tests nothing", mode.name, corpus.name)
			}
			for shards := 1; shards <= 3; shards++ {
				t.Run(fmt.Sprintf("%s/%s/shards%d", mode.name, corpus.name, shards), func(t *testing.T) {
					locals := make([]*er.Resolver, shards)
					for i := range locals {
						locals[i] = er.NewResolver(mode.cfg)
					}
					for _, e := range corpus.ents {
						locals[shard.ShardOf(e.Key, shards)].Add(e)
					}
					x := er.NewExchange(mode.cfg)
					for i, r := range locals {
						x.AddBatch(i, r.DigestsSince(0, 0))
					}

					for i, a := range corpus.ents {
						for _, b := range corpus.ents[i+1:] {
							want := single.Same(a.ID, b.ID)
							got := x.SameRef(er.RefKey{Source: a.Source, Key: a.Key}, er.RefKey{Source: b.Source, Key: b.Key})
							if got != want {
								t.Errorf("%s and %s: same cluster = %v across shards, %v on one node", a.Key, b.Key, got, want)
							}
						}
					}
					st := x.Stats()
					if st.Digests != len(corpus.ents) {
						t.Errorf("digests = %d, want %d", st.Digests, len(corpus.ents))
					}
					if shards == 1 && (st.Comparisons != 0 || st.CrossMerges != 0) {
						t.Errorf("one shard has nothing to exchange: %+v", st)
					}
					if shards == 3 && st.CrossMerges == 0 {
						t.Errorf("no cross merge on three shards; the split tests nothing: %+v", st)
					}

					// A router restart replays every batch from watermark zero.
					for i, r := range locals {
						x.AddBatch(i, r.DigestsSince(0, 0))
					}
					if again := x.Stats(); again != st {
						t.Errorf("replay changed the exchange: %+v, was %+v", again, st)
					}
				})
			}
		}
	}
}
