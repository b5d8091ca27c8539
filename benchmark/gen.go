package main

// The seeded input generator. It emits only public scdb.Source values and
// SCQL strings, and it keeps what it needs to judge the program's answers:
// the read corpus row by row (the oracle of checks.go) and the list of
// duplicates it planted in the delivery stream.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"scdb"
)

// Read classes, in the order every per-class array uses.
const (
	classPoint = iota
	classRange
	classAgg
	classTopK
	classScan
	numClasses
)

var classNames = [numClasses]string{"point", "range", "agg", "topk", "scan"}

// newVocab makes n distinct digit-free words of 6 to 9 random letters.
// Digits are kept out because the resolver treats disagreeing digit tokens
// as proof that two values differ; letters only lets a typo stay a typo.
// The letters are uniform, not pronounceable, so that four-letter prefixes
// (the resolver's blocking keys) are about as many as the words.
func newVocab(rng *rand.Rand, n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		b := make([]byte, 6+rng.Intn(4))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		if w := string(b); !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// item is one row of the read corpus.
type item struct {
	key, name, region string
	slot, qty         int64
	price             float64
}

// corpus is the read corpus plus the zipfian key sampler over it.
type corpus struct {
	items []item
	// zipfCDF[r] is the probability that a point read draws a rank <= r;
	// rankKey scatters ranks over the key space so the hot head is not one
	// slot range (or one shard).
	zipfCDF []float64
	rankKey []int32
}

const (
	vocabWords  = 5000
	regionCount = 50
	zipfTheta   = 0.99
)

func genCorpus(seed int64, rows int) *corpus {
	rng := rand.New(rand.NewSource(seed))
	vocab := newVocab(rng, vocabWords)
	c := &corpus{items: make([]item, rows)}
	for i := range c.items {
		// Regions are skewed: the square of a uniform draw favours the low
		// region numbers about 7:1 between the first and the last tenth.
		u := rng.Float64()
		c.items[i] = item{
			key:    fmt.Sprintf("it-%07d", i),
			name:   vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))],
			region: fmt.Sprintf("reg%02d", int(u*u*regionCount)),
			slot:   int64(i),
			qty:    int64(1 + rng.Intn(100)),
			price:  float64(100+rng.Intn(99900)) / 100,
		}
	}
	c.zipfCDF = make([]float64, rows)
	var sum float64
	for r := range c.zipfCDF {
		sum += 1 / math.Pow(float64(r+1), zipfTheta)
		c.zipfCDF[r] = sum
	}
	for r := range c.zipfCDF {
		c.zipfCDF[r] /= sum
	}
	c.rankKey = make([]int32, rows)
	for i, p := range rng.Perm(rows) {
		c.rankKey[i] = int32(p)
	}
	return c
}

// source renders the corpus as one delivery of table "items". It has a
// single source, so the resolver gathers candidates but never scores one.
func (c *corpus) source() scdb.Source {
	src := scdb.Source{Name: "items", Entities: make([]scdb.Entity, len(c.items))}
	for i, it := range c.items {
		src.Entities[i] = scdb.Entity{Key: it.key, Attrs: scdb.Record{
			"name": it.name, "slot": it.slot, "region": it.region, "price": it.price, "qty": it.qty,
		}}
	}
	return src
}

// Row counts of the wide classes, as shares of the corpus: the issue's
// 50k/50k/10k of 100k rows.
func (c *corpus) aggRows() int  { return len(c.items) / 2 }
func (c *corpus) scanRows() int { return len(c.items) / 10 }

const rangeRows = 100

// stmt is one generated read: its class, its text, and the parameter the
// oracle needs to compute the expected answer.
type stmt struct {
	class int
	text  string
	lo    int // first slot (range, agg, topk, scan) or the row index (point)
}

// Class weights of the full read mix and of the mixed workload's reader.
var (
	readMix  = [numClasses]int{80, 10, 3, 3, 4}
	mixedMix = [numClasses]int{90, 10, 0, 0, 0}
)

// stmtGen draws statements for one client. Each client has its own
// generator, seeded from the run seed and the client's number.
type stmtGen struct {
	c   *corpus
	rng *rand.Rand
	// deck holds one card per unit of class weight and is dealt in shuffled
	// order, then reshuffled: every hundred reads have exactly the mix's
	// shares. Drawing each class at random instead would let the share of
	// the wide classes, which cost a thousand point reads each, wander by a
	// tenth between seeds, and the throughput with it.
	deck []int
	next int
}

func newStmtGen(c *corpus, seed int64, client int, weights [numClasses]int) *stmtGen {
	g := &stmtGen{c: c, rng: rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 17))}
	for class, w := range weights {
		for i := 0; i < w; i++ {
			g.deck = append(g.deck, class)
		}
	}
	g.next = len(g.deck)
	return g
}

func (g *stmtGen) draw() stmt {
	if g.next == len(g.deck) {
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
		g.next = 0
	}
	g.next++
	return g.ofClass(g.deck[g.next-1])
}

// ofClass draws one statement of a class. Point keys are zipfian, so the
// hot head fits the plan and materialization caches and the tail does not;
// every other class takes a uniformly random lower bound, so its text is
// almost always new and the executor, not the result cache, answers it.
func (g *stmtGen) ofClass(class int) stmt {
	n := len(g.c.items)
	switch class {
	case classPoint:
		r := sort.SearchFloat64s(g.c.zipfCDF, g.rng.Float64())
		if r >= n {
			r = n - 1
		}
		return g.c.stmtAt(class, int(g.c.rankKey[r]))
	case classRange:
		return g.c.stmtAt(class, g.rng.Intn(n-rangeRows+1))
	case classAgg, classTopK:
		return g.c.stmtAt(class, g.rng.Intn(n-g.c.aggRows()+1))
	default:
		return g.c.stmtAt(class, g.rng.Intn(n-g.c.scanRows()+1))
	}
}

// stmtAt builds the statement of a class at a given parameter.
func (c *corpus) stmtAt(class, lo int) stmt {
	s := stmt{class: class, lo: lo}
	switch class {
	case classPoint:
		s.text = fmt.Sprintf("SELECT name, region, price, qty FROM items WHERE _key = '%s'", c.items[lo].key)
	case classRange:
		s.text = fmt.Sprintf("SELECT _key, slot, price FROM items WHERE slot >= %d AND slot < %d", lo, lo+rangeRows)
	case classAgg:
		s.text = fmt.Sprintf("SELECT region, COUNT(*) AS n, SUM(qty) AS q, MIN(price) AS lo, MAX(price) AS hi FROM items WHERE slot >= %d AND slot < %d GROUP BY region", lo, lo+c.aggRows())
	case classTopK:
		s.text = fmt.Sprintf("SELECT _key, price FROM items WHERE slot >= %d AND slot < %d ORDER BY price DESC, _key LIMIT 10", lo, lo+c.aggRows())
	case classScan:
		s.text = fmt.Sprintf("SELECT _key, name, region, price, qty FROM items WHERE slot >= %d AND slot < %d", lo, lo+c.scanRows())
	}
	return s
}

// delivery is one unit of the ingest stream.
type delivery struct {
	src scdb.Source
	// planted counts the entities of this delivery that re-mention, with
	// noise, an entity an earlier delivery of another source carried.
	planted int
}

const (
	streamVocabWords = 60000
	streamCities     = 40
	dupShare         = 0.30
)

var feedNames = [...]string{"feed_a", "feed_b", "feed_c", "feed_d"}

// mention is an entity some source already delivered, kept so that a later
// delivery of another source can re-mention it.
type mention struct {
	feed  int
	words [3]string
	city  string
}

// genStream builds n deliveries of per entities each, round-robin over the
// four feeds. About 30 % of a delivery's entities re-mention an entity an
// earlier, different feed delivered, with one of three kinds of noise: a
// typo in one word, two words swapped, or one word dropped. The rest are
// new. Names draw from a vocabulary large enough that token blocks stay far
// below the resolver's block cap while the stream runs, so a delivery late
// in the stream costs about what an early one does; the city attribute is
// the opposite, a stop-word-like key whose block overflows early and stays
// capped.
func genStream(seed int64, n, per int) []delivery {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	vocab := newVocab(rng, streamVocabWords)
	// City codes are four letters: the resolver takes any value of six or
	// more characters for an identifying one, and two entities of one city
	// would be one entity.
	cities := make([]string, streamCities)
	for i := range cities {
		cities[i] = newVocab(rng, 1)[0][:4]
	}
	st := make([]delivery, 0, n)
	var pool []mention
	serial := make([]int, len(feedNames))
	for d := 0; d < n; d++ {
		feed := d % len(feedNames)
		del := delivery{src: scdb.Source{Name: feedNames[feed], Entities: make([]scdb.Entity, 0, per)}}
		var fresh []mention
		for e := 0; e < per; e++ {
			var name, city string
			orig := -1
			if len(pool) > 0 && rng.Float64() < dupShare {
				// Up to eight draws for an entity of another feed; with four
				// feeds a draw succeeds three times in four.
				for try := 0; try < 8 && orig < 0; try++ {
					if i := rng.Intn(len(pool)); pool[i].feed != feed {
						orig = i
					}
				}
			}
			if orig >= 0 {
				m := pool[orig]
				name, city = noisy(rng, m.words), m.city
				del.planted++
			} else {
				m := mention{feed: feed, city: cities[rng.Intn(len(cities))]}
				for i := range m.words {
					m.words[i] = vocab[rng.Intn(len(vocab))]
				}
				fresh = append(fresh, m)
				name, city = strings.Join(m.words[:], " "), m.city
			}
			serial[feed]++
			del.src.Entities = append(del.src.Entities, scdb.Entity{
				Key:   fmt.Sprintf("%s-%06d", feedNames[feed][5:], serial[feed]),
				Attrs: scdb.Record{"name": name, "city": city},
			})
		}
		// Only whole earlier deliveries are re-mentioned, never this one.
		pool = append(pool, fresh...)
		st = append(st, del)
	}
	return st
}

// noisy renders a re-mention of a three-word name.
func noisy(rng *rand.Rand, w [3]string) string {
	switch rng.Intn(3) {
	case 0: // typo: one letter of one word replaced
		i := rng.Intn(3)
		b := []byte(w[i])
		p := rng.Intn(len(b))
		c := byte('a' + rng.Intn(26))
		for c == b[p] {
			c = byte('a' + rng.Intn(26))
		}
		b[p] = c
		w[i] = string(b)
		return strings.Join(w[:], " ")
	case 1: // token swap
		i := rng.Intn(3)
		j := (i + 1 + rng.Intn(2)) % 3
		w[i], w[j] = w[j], w[i]
		return strings.Join(w[:], " ")
	default: // dropped token
		i := rng.Intn(3)
		return strings.Join(append(append([]string{}, w[:i]...), w[i+1:]...), " ")
	}
}
