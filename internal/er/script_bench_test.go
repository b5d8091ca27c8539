package er

import (
	"math/rand"
	"strings"
	"testing"

	"scdb/internal/model"
)

// benchScripts are the alphabets the script benchmarks draw their words
// from: 26 consecutive lower-case letters from first on. Only the rune width
// differs between them, so a gap between two scripts is what the width
// costs. Latin and Greek trigrams are narrow (every rune below narrowRune),
// Cyrillic and CJK ones wide; mixed is Latin with its third word Cyrillic,
// so a value holds narrow trigrams, wide ones and trigrams that straddle.
var benchScripts = []struct {
	name  string
	first rune
	mixed bool
}{
	{"latin", 'a', false},
	{"greek", 'α', false},
	{"cyrillic", 'а', false},
	{"cjk", '一', false},
	{"mixed", 'a', true},
}

// scriptFixture is 2,000 entities of three sources, each a three-word name
// of the script and a four-letter Latin city, and 200 arrivals of a fourth
// source, of which 30 % re-mention an indexed name with one rune replaced.
// The cities are the same in every script: eight of them make every city
// block overflow the block cap, so an arrival is scored against about as
// many candidates as an arrival of the ingest stream, and at four bytes a
// city is too short to identify an entity.
type scriptFixture struct {
	res      *Resolver
	names    []string
	arrivals []*model.Entity
	targets  []int // the indexed entity each arrival re-mentions, or -1
}

func newScriptFixture(first rune, mixed bool) *scriptFixture {
	rng := rand.New(rand.NewSource(23))
	word := func(first rune, n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteRune(first + rune(rng.Intn(26)))
		}
		return b.String()
	}
	name := func() string {
		third := first
		if mixed {
			third = 'а'
		}
		return word(first, 6+rng.Intn(4)) + " " + word(first, 6+rng.Intn(4)) + " " + word(third, 6+rng.Intn(4))
	}
	cities := make([]string, 8)
	for i := range cities {
		cities[i] = word('a', 4)
	}
	f := &scriptFixture{res: NewResolver(Config{})}
	for i := 0; i < 2000; i++ {
		f.names = append(f.names, name())
		f.res.Add(ent(model.EntityID(i+1), fixtureFeeds[i%3], map[string]string{"name": f.names[i], "city": cities[rng.Intn(len(cities))]}))
	}
	for i := 0; i < 200; i++ {
		n, target := name(), -1
		if rng.Float64() < 0.3 {
			target = rng.Intn(len(f.names))
			rs := []rune(f.names[target])
			p := rng.Intn(len(rs))
			for rs[p] == ' ' {
				p = rng.Intn(len(rs))
			}
			rs[p]++
			n = string(rs)
		}
		f.arrivals = append(f.arrivals, ent(0, "feed_d", map[string]string{"name": n, "city": cities[rng.Intn(len(cities))]}))
		f.targets = append(f.targets, target)
	}
	return f
}

// BenchmarkScriptIndex measures deriving an arriving entity: one op is one
// index of an arrival of the script fixture, into an arena started afresh
// every 1,024 ops.
func BenchmarkScriptIndex(b *testing.B) {
	for _, s := range benchScripts {
		b.Run(s.name, func(b *testing.B) {
			f := newScriptFixture(s.first, s.mixed)
			a := new(arena)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					a = new(arena)
				}
				index(f.arrivals[i%len(f.arrivals)], a)
			}
		})
	}
}

// scoreSink keeps BenchmarkScriptScore's scores live.
var scoreSink float64

// BenchmarkScriptScore measures the scorer at its heaviest: one op is one
// valSim at floor 0, where no measure stops early, of an arrival's name
// against the name it re-mentions or, for a fresh arrival, against an
// indexed name at random.
func BenchmarkScriptScore(b *testing.B) {
	for _, s := range benchScripts {
		b.Run(s.name, func(b *testing.B) {
			f := newScriptFixture(s.first, s.mixed)
			rng := rand.New(rand.NewSource(29))
			a := new(arena)
			type pair struct {
				x, y  attrVal
				masks matchMasks
			}
			pairs := make([]pair, len(f.arrivals))
			for i, e := range f.arrivals {
				t := f.targets[i]
				if t < 0 {
					t = rng.Intn(len(f.names))
				}
				x, y := index(e, a), index(ent(0, "feed_a", map[string]string{"name": f.names[t]}), a)
				if len(x.vals) != 1 || len(y.vals) != 1 {
					b.Fatalf("arrival %d has %d identifying values, its target %d; want 1", i, len(x.vals), len(y.vals))
				}
				pairs[i] = pair{x: x.vals[0], y: y.vals[0]}
				pairs[i].masks.build(x.vals[0].text)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := &pairs[i%len(pairs)]
				scoreSink += valSim(&p.x, &p.masks, &p.y, 0)
			}
		})
	}
}

// BenchmarkScriptPrepare is BenchmarkResolverPrepare over the script
// fixture: one op is one Prepare of an arrival, its index, candidate
// generation and scoring. pairs/s is candidate pairs scored per second.
func BenchmarkScriptPrepare(b *testing.B) {
	for _, s := range benchScripts {
		b.Run(s.name, func(b *testing.B) {
			f := newScriptFixture(s.first, s.mixed)
			pairs := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pairs += f.res.Prepare(f.arrivals[i%len(f.arrivals)]).Candidates()
			}
			b.ReportMetric(float64(pairs)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}
