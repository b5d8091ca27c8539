package curate

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"scdb/internal/datagen"
	"scdb/internal/er"
	"scdb/internal/model"
)

// TestAttrIndexSharesResolverNorms: an arriving string value is normalized
// once, by the resolver, and the attribute index keys it under that very
// string rather than a normal form of its own.
func TestAttrIndexSharesResolverNorms(t *testing.T) {
	p, _, _ := lifesciPipeline(t)
	ingestLifeSci(t, p)
	held := map[*byte]bool{}
	for _, d := range p.Resolver().DigestsSince(0, 0).Digests {
		for _, at := range d.Attrs {
			held[unsafe.StringData(at.Text)] = true
		}
	}
	if len(p.attrs.first) == 0 {
		t.Fatal("the corpus indexed no attribute value")
	}
	for k := range p.attrs.first {
		if !held[unsafe.StringData(k)] {
			t.Errorf("the attribute index keys %q under a string the resolver does not hold", k)
		}
	}
}

// TestTextIndexMatchesSliceIndex: the attribute index, which keeps a text's
// first entity inline, answers every text with the entities, in the order,
// that a map from each text to a slice of IDs answers when fed the same
// values, and so do link discovery (findTarget) and mention grounding
// (lookupValue) that read it. The stream's names are unique and its cities
// shared, so both halves of the index are read; every key is new, so the
// k-th entity delivered is entity k.
func TestTextIndexMatchesSliceIndex(t *testing.T) {
	p, g, _ := lifesciPipeline(t)
	rng := rand.New(rand.NewSource(5))
	word := func() string {
		b := make([]byte, 5+rng.Intn(4))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	cities := []string{"Oslo", "Lima", "Pune", "Kyiv", "Nice"}
	slice := map[string][]model.EntityID{}
	next := model.EntityID(0)
	for d := 0; d < 6; d++ {
		ds := datagen.Dataset{Source: fmt.Sprintf("feed_%d", d%3)}
		for e := 0; e < 40; e++ {
			ds.Entities = append(ds.Entities, datagen.EntitySpec{
				Key: fmt.Sprintf("k-%d-%d", d, e),
				Attrs: model.Record{
					"name": model.String(word() + " " + word()), "city": model.String(cities[rng.Intn(len(cities))]),
					"rank": model.Int(int64(e)),
				},
			})
		}
		if err := p.Ingest(NewDelivery(ds), nil); err != nil {
			t.Fatal(err)
		}
		for _, spec := range ds.Entities {
			next++
			names := spec.Attrs.Keys()
			sort.Strings(names)
			for _, name := range names {
				if s, ok := spec.Attrs[name].AsString(); ok && er.Normalize(s) != "" {
					slice[er.Normalize(s)] = append(slice[er.Normalize(s)], next)
				}
			}
		}
	}
	if len(p.attrs.first) != len(slice) {
		t.Errorf("the index holds %d texts, the slice index %d", len(p.attrs.first), len(slice))
	}
	if len(p.attrs.more) != len(cities) {
		t.Errorf("%d texts are shared, want the %d cities", len(p.attrs.more), len(cities))
	}
	for text, want := range slice {
		if got := slices.Collect(p.attrs.ids(text)); !slices.Equal(got, want) {
			t.Errorf("%q: the index answers %v, the slice index %v", text, got, want)
		}
		best := model.NoEntity
		for _, id := range want {
			if r := g.Resolve(id); best == model.NoEntity || r < best {
				best = r
			}
		}
		if got := p.findTarget(LinkRule{}, text); got != best {
			t.Errorf("%q: findTarget answers %d, want %d", text, got, best)
		}
		if got := p.lookupValue(strings.ToUpper(text)); got != best {
			t.Errorf("%q: lookupValue answers %d, want %d", text, got, best)
		}
	}
	if got := p.lookupValue("no such text"); got != model.NoEntity {
		t.Errorf("an absent text grounds to %d", got)
	}
}
