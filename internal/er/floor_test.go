package er

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"scdb/internal/model"
)

// exactRule is the default advisor's rule behind a type that is not a
// ThresholdAdvisor, so a resolver built with it scores every pair exactly.
type exactRule struct{ ThresholdAdvisor }

// flooredStream is shaped like the standing benchmark's ingest stream:
// deliveries of 32 entities round-robin over four feeds, each entity a
// three-word name and a four-letter city (not identifying, and a block key
// that overflows the block cap), about 30 % of them re-mentioning an entity
// an earlier delivery of another feed sent, with a typo, two words swapped or
// a word dropped.
func flooredStream(seed int64, deliveries int) [][]*model.Entity {
	rng := rand.New(rand.NewSource(seed))
	word := func() string {
		b := make([]byte, 6+rng.Intn(4))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	vocab := make([]string, 3000)
	for i := range vocab {
		vocab[i] = word()
	}
	cities := make([]string, 6)
	for i := range cities {
		cities[i] = word()[:4]
	}
	type mention struct {
		feed  int
		words [3]string
		city  string
	}
	var pool []mention
	var out [][]*model.Entity
	id := 0
	for d := 0; d < deliveries; d++ {
		feed := d % len(fixtureFeeds)
		var del []*model.Entity
		var fresh []mention
		for e := 0; e < 32; e++ {
			m := mention{feed: feed, city: cities[rng.Intn(len(cities))]}
			for i := range m.words {
				m.words[i] = vocab[rng.Intn(len(vocab))]
			}
			name := strings.Join(m.words[:], " ")
			if len(pool) > 0 && rng.Float64() < 0.3 {
				if o := pool[rng.Intn(len(pool))]; o.feed != feed {
					w, i := o.words, rng.Intn(3)
					switch rng.Intn(3) {
					case 0:
						b := []byte(w[i])
						b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
						w[i] = string(b)
						name = strings.Join(w[:], " ")
					case 1:
						w[i], w[(i+1)%3] = w[(i+1)%3], w[i]
						name = strings.Join(w[:], " ")
					default:
						name = strings.Join(append(append([]string{}, w[:i]...), w[i+1:]...), " ")
					}
					m.city = o.city
				}
			}
			fresh = append(fresh, m)
			id++
			del = append(del, ent(model.EntityID(id), fixtureFeeds[feed], map[string]string{"name": name, "city": m.city}))
		}
		pool = append(pool, fresh...)
		out = append(out, del)
	}
	return out
}

// resolveStream resolves the deliveries in order: one Add at a time, or, in
// parallel, each delivery prepared by four goroutines against the state
// before it and committed in record order, as the curation pipeline relates
// a chunk.
func resolveStream(cfg Config, stream [][]*model.Entity, parallel bool) *Resolver {
	r := NewResolver(cfg)
	for _, del := range stream {
		if !parallel {
			r.AddAll(del)
			continue
		}
		preps := make([]*Prepared, len(del))
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(del); i = int(next.Add(1)) - 1 {
					preps[i] = r.Prepare(del[i])
				}
			}()
		}
		wg.Wait()
		for i, e := range del {
			r.Commit(preps[i], e.ID)
		}
	}
	return r
}

// decided renders everything a resolver decided: every match with its
// score's bits, the comparison count, the work counters and the clusters.
func decided(r *Resolver) string {
	var b strings.Builder
	for _, m := range r.Matches() {
		fmt.Fprintf(&b, "%d-%d:%016x ", m.A, m.B, math.Float64bits(m.Score))
	}
	fmt.Fprintf(&b, "\n%d %+v\n%v", r.Comparisons, r.Stats(), r.Clusters())
	return b.String()
}

// TestFlooredScoringDecidesAlike: the default advisor's resolver scores a
// pair only as far as the threshold needs, and a resolver whose advisor
// applies the same rule behind another type scores every pair exactly. On a
// benchmark-shaped stream both decide alike in every blocking mode, serial
// and parallel: the same matches with the same score bits, the same
// comparisons, counters and clusters. Serial and parallel decide alike too,
// the block-cap skips included.
func TestFlooredScoringDecidesAlike(t *testing.T) {
	stream := flooredStream(58, 96)
	exact := Config{Advisor: exactRule{ThresholdAdvisor{Threshold: threshold}}}
	if f := NewResolver(Config{}).floor; f != threshold {
		t.Fatalf("the default advisor's resolver scores to floor %v, want the threshold %v", f, threshold)
	}
	if f := NewResolver(exact).floor; f != 0 {
		t.Fatalf("a resolver whose advisor is not a ThresholdAdvisor scores to floor %v, want 0", f)
	}
	for _, mode := range []BlockingMode{BlockingToken, BlockingANN, BlockingBoth} {
		var serial string
		for _, parallel := range []bool{false, true} {
			exact.Blocking = mode
			floored := resolveStream(Config{Blocking: mode}, stream, parallel)
			want := decided(resolveStream(exact, stream, parallel))
			got := decided(floored)
			if got != want {
				t.Errorf("%s, parallel %v: floored scoring decided\n%s\nexact scoring\n%s", mode, parallel, got, want)
			}
			if !parallel {
				serial = got
			} else if got != serial {
				t.Errorf("%s: parallel scoring decided\n%s\nserial scoring\n%s", mode, got, serial)
			}
			st := floored.Stats()
			t.Logf("%s, parallel %v: %+v", mode, parallel, st)
			if st.Matches < 100 || st.Comparisons < 10*st.Matches {
				t.Errorf("%s: %d matches in %d comparisons; the stream should re-mention and mostly reject", mode, st.Matches, st.Comparisons)
			}
			if mode == BlockingToken && st.BlockSkips == 0 {
				t.Errorf("no city block overflowed the block cap")
			}
		}
	}
}
