package er

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"scdb/internal/model"
)

// clobber appends to every slice the resolver keeps of an entity — its
// token set, attrs and vals, each value's tokens, digits and trigrams — and
// to its ANN vector, and throws the results away. A range capped at its
// length moves to a new array; an uncapped one writes into whatever the
// arena carved after it.
func clobber(ix *indexed, vec []float32) {
	_ = append(ix.tokens, "\x00clobbered")
	_ = append(ix.attrs, AttrText{Name: "\x00", Text: "\x00clobbered"})
	_ = append(ix.vals, attrVal{text: "\x00clobbered", runes: -1})
	for i := range ix.vals {
		v := &ix.vals[i]
		_ = append(v.tokens, "\x00clobbered")
		_ = append(v.digits, "\x00clobbered")
		_ = append(v.tris, ^uint64(0))
	}
	_ = append(vec, -2)
}

// TestNoSharedRanges: a thousand entities committed through a resolver and
// a thousand digests through an exchange, both with ANN vectors, then an
// append to every slice each of them keeps. Every entity must still equal
// its textbook derivation and every vector its embedding, so no range the
// arena carved reaches into another's.
func TestNoSharedRanges(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(45))
	names := []string{"name", "city", "code", "alias", "note"}
	r := NewResolver(Config{Blocking: BlockingBoth})
	es := make([]*model.Entity, n)
	for i := range es {
		rec := model.Record{}
		for _, name := range names[:rng.Intn(len(names)+1)] {
			if rng.Intn(5) == 0 {
				rec[name] = model.Int(int64(rng.Intn(100000)))
			} else {
				rec[name] = model.String(randomText(rng))
			}
		}
		es[i] = &model.Entity{ID: model.EntityID(i + 1), Key: fmt.Sprintf("k%d", i), Source: fmt.Sprintf("s%d", i%3), Attrs: rec}
		r.Add(es[i])
	}
	x := NewExchange(Config{Blocking: BlockingBoth})
	digests := make([]Digest, n)
	for i := range digests {
		d := Digest{Source: "d", Key: fmt.Sprintf("d%d", i), Tokens: textbookSet(strings.Fields(randomText(rng)))}
		for _, name := range names[:rng.Intn(len(names)+1)] {
			d.Attrs = append(d.Attrs, AttrText{Name: name, Text: textbookNormalize(randomText(rng))})
		}
		digests[i] = d
		x.AddBatch(i%3, DigestBatch{Digests: []Digest{d}})
	}

	for _, res := range []*Resolver{r, x.res} {
		for i := range res.ents {
			clobber(&res.ents[i], res.ann.vecs[i])
		}
	}
	for _, res := range []*Resolver{r, x.res} {
		for i := range res.ents {
			if want := embedTokens(nil, res.ents[i].tokens); !slices.Equal(res.ann.vecs[i], want) {
				t.Fatalf("entity %d's ANN vector %v, want %v", i, res.ann.vecs[i], want)
			}
		}
	}
	for i, e := range es {
		want := textbookIndex(textbookAttrs(e), nil, true)
		if diff := sameIndex(&r.ents[i], &want); diff != "" {
			t.Fatalf("entity %d (%v) after every append: %s", i, e.Attrs, diff)
		}
	}
	for i, d := range digests {
		want := textbookIndex(d.Attrs, d.Tokens, false)
		if diff := sameIndex(&x.res.ents[i], &want); diff != "" {
			t.Fatalf("digest %d (%q) after every append: %s", i, d.Attrs, diff)
		}
	}
}

// TestRedeliveryHeap bounds what the resolver keeps of a re-delivered key.
// The curation pipeline prepares every arrival, and for a key the graph
// already holds it releases that Prepared unused and re-scores the entity
// through Add (relatePrepared). The released index stays in the arena,
// which never hands a range out twice: its ranges share chunks with the
// entities committed around it. 200 keys, each a three-word name and a city
// as the standing benchmark's stream has them, are indexed by two resolvers
// and then re-delivered 20 times to each, through Add alone and the
// pipeline's way; the heap each re-delivery leaves after a collection is
// measured, and the difference is what the released index keeps. The race
// build's instrumentation inflates the heap, so the bounds hold without it.
func TestRedeliveryHeap(t *testing.T) {
	const keys, rounds = 200, 20
	rng := rand.New(rand.NewSource(45))
	word := func() string {
		b := make([]byte, 6+rng.Intn(4))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	es := make([]*model.Entity, keys)
	for i := range es {
		es[i] = fixtureEntity(i+1, fixtureFeeds[i%4], word()+" "+word()+" "+word(), word()[:4])
	}
	keeps := func(redeliver func(r *Resolver, e *model.Entity)) float64 {
		r := NewResolver(Config{})
		for _, e := range es {
			r.Add(e)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for round := 0; round < rounds; round++ {
			for _, e := range es {
				redeliver(r, e)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(r)
		return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (keys * rounds)
	}
	added := keeps(func(r *Resolver, e *model.Entity) { r.Add(e) })
	redelivered := keeps(func(r *Resolver, e *model.Entity) {
		r.Prepare(e).Release()
		r.Add(e)
	})
	released := redelivered - added
	t.Logf("a re-delivered key keeps %.0f bytes of heap, %.0f of them its released index", redelivered, released)
	if raceEnabled {
		return
	}
	if released > 600 {
		t.Errorf("a released index keeps %.0f bytes of heap, budget 600", released)
	}
	if redelivered > 1500 {
		t.Errorf("a re-delivered key keeps %.0f bytes of heap, budget 1,500", redelivered)
	}
}
