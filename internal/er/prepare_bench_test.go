package er

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"scdb/internal/model"
)

// prepareFixture is the population TestPrepareAllocBudget and
// BenchmarkResolverPrepare share, shaped like the standing benchmark's ingest
// stream: 5,000 entities of four sources, each a three-word name (the one
// identifying value) and a four-letter city. Names draw from a vocabulary
// large enough that their blocks stay small; a city is a stop-word-like key
// whose block overflows the block cap and stays capped, and it is where nearly
// all of an arrival's candidates come from. Two cities are laid out by hand:
// the capped block of "qqqa" opens with 60 members an arrival of feed_d can be
// scored against and 4 it cannot, and "qqqb" holds 10 and 4.
type prepareFixture struct {
	res   *Resolver
	ents  []*model.Entity // what res indexed, in order
	names []string        // the indexed names, for arrivals to re-mention
	rng   *rand.Rand
	vocab []string
}

var fixtureFeeds = [...]string{"feed_a", "feed_b", "feed_c", "feed_d"}

const fixtureEntities = 5000

func newPrepareFixture(cfg Config) *prepareFixture {
	f := &prepareFixture{res: NewResolver(cfg), rng: rand.New(rand.NewSource(19))}
	word := func() string {
		b := make([]byte, 6+f.rng.Intn(4))
		for i := range b {
			b[i] = byte('a' + f.rng.Intn(26))
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		f.vocab = append(f.vocab, word())
	}
	cities := make([]string, 40)
	for i := range cities {
		cities[i] = "c" + word()[:3]
	}
	for i := 0; i < fixtureEntities; i++ {
		source, city := fixtureFeeds[i%4], cities[f.rng.Intn(len(cities))]
		switch {
		case i < 60:
			source, city = fixtureFeeds[i%3], "qqqa"
		case i < 64 || i >= 100 && i < 120: // the tail overflows the cap
			source, city = "feed_d", "qqqa"
		case i < 74:
			source, city = fixtureFeeds[i%3], "qqqb"
		case i < 78:
			source, city = "feed_d", "qqqb"
		}
		f.names = append(f.names, f.freshName())
		f.ents = append(f.ents, fixtureEntity(i+1, source, f.names[i], city))
		f.res.Add(f.ents[i])
	}
	return f
}

func fixtureEntity(id int, source, name, city string) *model.Entity {
	return ent(model.EntityID(id), source, map[string]string{"name": name, "city": city})
}

func (f *prepareFixture) freshName() string {
	return f.vocab[f.rng.Intn(len(f.vocab))] + " " + f.vocab[f.rng.Intn(len(f.vocab))] + " " + f.vocab[f.rng.Intn(len(f.vocab))]
}

// typo re-mentions an indexed name with one letter replaced.
func (f *prepareFixture) typo(of int) string {
	b := []byte(f.names[of])
	for {
		if p := f.rng.Intn(len(b)); b[p] != ' ' {
			b[p] = 'a' + (b[p]-'a'+1)%26
			return string(b)
		}
	}
}

// TestPrepareAllocBudget: what Prepare allocates is what the arriving entity
// keeps — its keys and one slice of scored candidates; its index is carved
// from the resolver's arena — and so does not grow with the candidates:
// nothing is allocated per pair. With two DP rows per pair and a string per
// trigram it was about 165 objects for 51 candidates, and 10 while an
// index was five objects of its own. In the steady state, where each
// Prepare draws the Prepared an earlier Commit consumed, an arrival costs
// nothing in every blocking mode: its index, its embedding and its match
// are carved from or appended to what the resolver already holds; with five
// index objects and a slice of matches it was 6, and with a string, a field
// slice and a trigram set per value and a postings array per block 14 to
// 15. The exchange adds a digest for nothing either, where it took 4, and 9
// before that. Then four goroutines prepare against the frozen resolver at
// once, as the pipeline's workers do; under -race that is what pins that a
// pooled scratch is never in two hands.
func TestPrepareAllocBudget(t *testing.T) {
	f := newPrepareFixture(Config{})
	many := fixtureEntity(0, "feed_d", f.typo(3000), "qqqa")
	few := fixtureEntity(0, "feed_d", f.typo(3001), "qqqb")
	if st := f.res.Stats(); st.BlockSkips == 0 {
		t.Fatal("no block overflowed the block cap; the fixture has no capped block")
	}
	nMany, nFew := f.res.Prepare(many).Candidates(), f.res.Prepare(few).Candidates()
	if nMany < 50 || nFew == 0 || nFew > nMany/4 {
		t.Fatalf("arrivals gather %d and %d candidates, want at least 50 and a few", nMany, nFew)
	}
	var sink *Prepared
	aMany := testing.AllocsPerRun(200, func() { sink = f.res.Prepare(many) })
	aFew := testing.AllocsPerRun(200, func() { sink = f.res.Prepare(few) })
	_ = sink
	t.Logf("Prepare allocates %.0f objects with %d candidates, %.0f with %d", aMany, nMany, aFew, nFew)
	// The race build's sync.Pool drops a quarter of what is Put, on purpose,
	// so there a count is an average over rebuilt scratches.
	if !raceEnabled {
		if aMany > 6 {
			t.Errorf("Prepare with %d candidates allocates %.0f objects, budget 6", nMany, aMany)
		}
		if aMany != aFew {
			t.Errorf("Prepare allocates %.0f objects with %d candidates and %.0f with %d; want the same", aMany, nMany, aFew, nFew)
		}
	}

	// Steady state: each run prepares and commits a fresh typo of an indexed
	// name, in a capped city block (many candidates) or a city of its own
	// (few), so every arrival finds its one match. The typos are of names
	// feed_d did not deliver, which a feed_d arrival is never paired with.
	// Under ann and both the arrivals are those of the token fixture; ann's
	// top-K probe finds some of their matches, and both finds every one.
	const runs = 200
	for _, mode := range []BlockingMode{BlockingToken, BlockingANN, BlockingBoth} {
		mf := f
		if mode != BlockingToken {
			mf = newPrepareFixture(Config{Blocking: mode})
		}
		next, target := fixtureEntities, 1000
		arrivals := func(city func(i int) string) []*model.Entity {
			es := make([]*model.Entity, runs+1)
			for i := range es {
				if fixtureFeeds[target%4] == "feed_d" {
					target++
				}
				es[i] = fixtureEntity(0, "feed_d", mf.typo(target), city(i))
				target++
			}
			return es
		}
		matched := 0
		steady := func(es []*model.Entity) (allocs float64, cands int) {
			i := 0
			allocs = testing.AllocsPerRun(runs, func() {
				p := mf.res.Prepare(es[i])
				cands += p.Candidates()
				next++
				switch m := len(mf.res.Commit(p, model.EntityID(next))); {
				case m == 1:
					matched++
				case m > 1 || mode != BlockingANN:
					t.Fatalf("%s: arrival %d found %d matches, want 1", mode, i, m)
				}
				i++
			})
			return allocs, cands / (runs + 1)
		}
		cMany, perMany := steady(arrivals(func(int) string { return "qqqa" }))
		cFew, perFew := steady(arrivals(func(i int) string { return fmt.Sprintf("zz%c%c", 'a'+i/26%26, 'a'+i%26) }))
		t.Logf("%s: Prepare and Commit allocate %.0f objects an arrival with %d candidates, %.0f with %d; %d of %d arrivals matched", mode, cMany, perMany, cFew, perFew, matched, 2*(runs+1))
		if matched == 0 {
			t.Fatalf("%s: no steady arrival found its match", mode)
		}
		if mode == BlockingToken && (perMany < 50 || perFew > 8) {
			t.Fatalf("steady arrivals gather %d and %d candidates, want at least 50 and a few", perMany, perFew)
		}
		if !raceEnabled && (cMany > 1 || cFew > 1) {
			t.Errorf("%s: Prepare and Commit allocate %.0f and %.0f objects an arrival, budget 1", mode, cMany, cFew)
		}
	}

	// The exchange: a digest of another shard's entity re-mentioning an
	// indexed name, against the digests of the whole fixture: 0 objects on
	// go1.24/linux/amd64.
	x := NewExchange(Config{})
	x.AddBatch(0, f.res.DigestsSince(0, 0))
	digests := make([]Digest, runs+1)
	for i := range digests {
		ix := index(fixtureEntity(0, "feed_e", f.typo(i), "qqqa"), &x.res.arena)
		digests[i] = Digest{Source: "feed_e", Key: fmt.Sprintf("e%d", i), Tokens: ix.tokens, Attrs: ix.attrs}
	}
	i := 0
	aDigest := testing.AllocsPerRun(runs, func() {
		x.addDigest(1, digests[i])
		i++
	})
	t.Logf("Exchange.addDigest allocates %.0f objects a digest", aDigest)
	if !raceEnabled && aDigest > 1 {
		t.Errorf("Exchange.addDigest allocates %.0f objects a digest, budget 1", aDigest)
	}

	want := f.res.Prepare(many)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e, n := many, nMany
				if (i+g)%2 == 1 {
					e, n = few, nFew
				}
				p := f.res.Prepare(e)
				if p.Candidates() != n {
					t.Errorf("concurrent Prepare gathered %d candidates, want %d", p.Candidates(), n)
					return
				}
				if e == many && fmt.Sprint(p.cands) != fmt.Sprint(want.cands) {
					t.Errorf("concurrent Prepare scored differently:\n got %v\nwant %v", p.cands, want.cands)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkResolverPrepare measures the ingest fast path's pure half: one
// op is one Prepare of an arrival against the fixture, over a delivery's
// worth of arrivals of which 30 % re-mention an indexed entity with a typo.
// pairs/s is candidate pairs scored per second.
func BenchmarkResolverPrepare(b *testing.B) {
	for _, mode := range []BlockingMode{BlockingToken, BlockingANN, BlockingBoth} {
		b.Run(mode.String(), func(b *testing.B) {
			f := newPrepareFixture(Config{Blocking: mode})
			arrivals := make([]*model.Entity, 200)
			for i := range arrivals {
				name := f.freshName()
				if f.rng.Float64() < 0.3 {
					name = f.typo(f.rng.Intn(len(f.names)))
				}
				city := "qqqa"
				if i%4 == 0 {
					city = "qqqb"
				}
				arrivals[i] = fixtureEntity(0, "feed_d", name, city)
			}
			pairs := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pairs += f.res.Prepare(arrivals[i%len(arrivals)]).Candidates()
			}
			b.ReportMetric(float64(pairs)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// TestPreparedPoolOwnership runs relateChunk's shape: four goroutines
// prepare a chunk while a fifth takes each Prepared in record order and
// commits it, so the Prepareds Commit consumes go back to the pool while the
// preparers draw from it. The commits go to a second resolver built like
// the first, whose committed prefix is the same, so the preparers read a
// resolver nothing writes. Every Prepared must reach Commit as a serial
// Prepare made it, and every entity the second resolver holds at the end
// must equal its textbook derivation (TestIndexMatchesReference), so no
// preparer's carve overlapped another's; under -race, a Prepared in two
// hands or an arena carved without its lock is a reported race.
func TestPreparedPoolOwnership(t *testing.T) {
	frozen, live := newPrepareFixture(Config{}), newPrepareFixture(Config{})
	chunk := make([]*model.Entity, 64)
	for i := range chunk {
		name, city := frozen.freshName(), "qqqa"
		if i%3 == 0 {
			name = frozen.typo(i * 50)
		}
		if i%4 == 0 {
			city = "qqqb"
		}
		chunk[i] = fixtureEntity(0, "feed_d", name, city)
	}
	describe := func(p *Prepared) string {
		return fmt.Sprint(p.ix.attrs, p.ix.tokens, p.ix.vals, p.keys, p.cands)
	}
	want := make([]string, len(chunk))
	for i, e := range chunk {
		want[i] = describe(frozen.res.Prepare(e))
	}
	id := fixtureEntities
	committed := slices.Clone(live.ents)
	for round := 0; round < 20; round++ {
		ready := make([]chan *Prepared, len(chunk))
		for i := range ready {
			ready[i] = make(chan *Prepared, 1)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(chunk); i = int(next.Add(1)) - 1 {
					ready[i] <- frozen.res.Prepare(chunk[i])
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range chunk {
				p := <-ready[i]
				if got := describe(p); got != want[i] {
					t.Errorf("round %d: arrival %d reached Commit as\n%s\nwant\n%s", round, i, got, want[i])
				}
				id++
				live.res.Commit(p, model.EntityID(id))
			}
		}()
		wg.Wait()
		committed = append(committed, chunk...)
	}
	if len(live.res.ents) != len(committed) {
		t.Fatalf("the resolver holds %d entities, want %d", len(live.res.ents), len(committed))
	}
	for i, e := range committed {
		want := textbookIndex(textbookAttrs(e), nil, true)
		if diff := sameIndex(&live.res.ents[i], &want); diff != "" {
			t.Fatalf("committed entity %d (%v): %s", i, e.Attrs, diff)
		}
	}
}
