package scdb

// The testing.B benchmarks CI smoke-runs and EXPERIMENTS.md quotes. The
// paper's FS/OS experiments are timed and tabulated by the internal/bench
// runners (scdb-bench -run E-...), not here.

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"scdb/internal/datagen"
	"scdb/internal/graph"
	"scdb/internal/model"
	"scdb/internal/storage"
)

// --- E-ER: ingest through the curation pipeline, per blocking mode ------

// erIngestStations sizes BenchmarkERIngest: SCDB_ER_STATIONS overrides
// the 240-station default (CI smoke runs set it small).
func erIngestStations() int {
	if s := os.Getenv("SCDB_ER_STATIONS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 240
}

// BenchmarkERIngest measures end-to-end ingest of the IoT near-duplicate
// stream through the full curation pipeline per ER blocking mode — the
// tentpole claim is that approximate candidate generation keeps the
// relate stage the ingest fast path at a high source count. Run with
// -benchtime=1x; records/s is the number E-ER records, and recall (over
// the generator's truth pairs) guards against buying speed with misses.
func BenchmarkERIngest(b *testing.B) {
	stations := erIngestStations()
	sets, truth := datagen.IoTSensors(7, 4, stations, 1, 0.25)
	var srcs []Source
	records := 0
	for _, ds := range sets {
		srcs = append(srcs, fromDataset(ds))
		records += len(ds.Entities)
	}
	modes := []struct {
		name     string
		blocking string
		par      int
	}{
		{"token-serial", "token", 1},
		{"token-parallel", "token", 4},
		{"ann-parallel", "ann", 4},
		{"both-parallel", "both", 4},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var total time.Duration
			var comparisons, hit int
			for i := 0; i < b.N; i++ {
				db, err := Open(Options{
					Axioms:       "concept Device",
					DisableCache: true,
					ERBlocking:   m.blocking,
					Parallelism:  m.par,
				})
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				for _, src := range srcs {
					if err := db.Ingest(src); err != nil {
						b.Fatal(err)
					}
				}
				total += time.Since(start)
				comparisons = db.Stats().ER.Comparisons
				g := db.inner.Graph()
				r := db.inner.Pipeline().Resolver()
				hit = 0
				for _, p := range truth {
					a, aok := g.FindByKey(p.KeyA[:4], p.KeyA)
					c, cok := g.FindByKey(p.KeyB[:4], p.KeyB)
					if aok && cok && r.Same(a.ID, c.ID) {
						hit++
					}
				}
				db.Close()
			}
			b.ReportMetric(float64(records)*float64(b.N)/total.Seconds(), "records/s")
			b.ReportMetric(float64(comparisons), "comparisons")
			b.ReportMetric(float64(hit)/float64(len(truth)), "recall")
		})
	}
}

// --- E-OS2: traversal -------------------------------------------------------------

func traversalGraph(b *testing.B) (*graph.Graph, model.EntityID) {
	b.Helper()
	g := graph.New()
	const comms, per = 30, 20
	var ids []model.EntityID
	for c := 0; c < comms; c++ {
		for i := 0; i < per; i++ {
			ids = append(ids, g.AddEntity(&model.Entity{
				Key: fmt.Sprintf("c%d-%d", c, i), Source: "b", Attrs: model.Record{}}))
		}
	}
	for i := 0; i < comms*per*4; i++ {
		c := (i * 7) % comms
		a := ids[c*per+(i*13)%per]
		t := ids[c*per+(i*17)%per]
		if i%20 == 0 {
			t = ids[(i*31)%len(ids)]
		}
		if a != t {
			g.AddEdge(graph.Edge{From: a, Predicate: "p", To: model.Ref(t), Source: "b"})
		}
	}
	return g, ids[0]
}

func BenchmarkTraversalMap(b *testing.B) {
	g, start := traversalGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.KHop(start, 4, "")
	}
}

func BenchmarkTraversalCSR(b *testing.B) {
	g, start := traversalGraph(b)
	csr := g.BuildCSR(graph.OrderBFS)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr.KHop(start, 4, nil)
	}
}

// --- Recovery: rebuild the enriched model from the durable store --------------

func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(Options{
		Dir:       dir,
		Axioms:    LifeSciAxioms,
		LinkRules: LifeSciLinkRules(),
		Patterns:  LifeSciPatterns(),
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, src := range LifeSciSample(1, 200, 130, 80) {
		if err := db.Ingest(src); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(Options{Dir: dir, LinkRules: LifeSciLinkRules(), Patterns: LifeSciPatterns()})
		if err != nil {
			b.Fatal(err)
		}
		if db.Stats().Entities == 0 {
			b.Fatal("rebuild produced no entities")
		}
		b.StopTimer()
		db.Close()
		b.StartTimer()
	}
}

// --- OS.2/OS.4: morsel-driven parallel execution -------------------------------------

// benchParallelDB loads a synthetic table of n rows straight through the
// transaction layer (bypassing curation, which is not what these benchmarks
// measure) into an engine with the given executor parallelism.
func benchParallelDB(b *testing.B, parallelism, n int) *DB {
	b.Helper()
	db, err := Open(Options{DisableCache: true, Parallelism: parallelism})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	tx := db.Begin(Snapshot)
	for i := 0; i < n; i++ {
		if _, err := tx.Insert("big", Record{"v": i % 1000, "w": i}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkParallelScanFilter sweeps the worker-pool size over a 100k-row
// scan+filter+aggregate — the canonical morsel-parallel pipeline. On a
// single-core host every setting degenerates to serial plus coordination
// overhead; speedups need >= 4 hardware threads (see EXPERIMENTS.md).
func BenchmarkParallelScanFilter(b *testing.B) {
	const q = `SELECT COUNT(*) AS n, SUM(w) AS s FROM big WHERE v * 3 > 500 AND v < 900`
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			db := benchParallelDB(b, p, 100_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelJoin sweeps the worker-pool size over a hash join with a
// parallel build side and per-morsel probes.
func BenchmarkParallelJoin(b *testing.B) {
	const q = `SELECT COUNT(*) AS n FROM big AS a JOIN dim AS d ON a.v = d.v WHERE d.tag < 500`
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			db := benchParallelDB(b, p, 100_000)
			tx := db.Begin(Snapshot)
			for i := 0; i < 1000; i++ {
				if _, err := tx.Insert("dim", Record{"v": i, "tag": (i * 7) % 1000}); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E-ROW: the standing benchmark's read mix, statement class by class ---

// benchReadMixDB loads the standing benchmark's read corpus (benchmark/gen.go:
// one source "items" of 20,000 rows; key, three-word name, skewed region,
// slot = row number, qty, price) on a default engine, and warms it until the
// auto-indexes on _key and slot exist.
func benchReadMixDB(tb testing.TB, rng *rand.Rand, rows int) *DB {
	tb.Helper()
	db, err := Open(Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	src := Source{Name: "items", Entities: make([]Entity, rows)}
	for i := range src.Entities {
		u := rng.Float64()
		src.Entities[i] = Entity{Key: fmt.Sprintf("it-%07d", i), Attrs: Record{
			"name":   fmt.Sprintf("w%04d w%04d w%04d", rng.Intn(5000), rng.Intn(5000), rng.Intn(5000)),
			"slot":   int64(i),
			"region": fmt.Sprintf("reg%02d", int(u*u*50)),
			"price":  float64(100+rng.Intn(99900)) / 100,
			"qty":    int64(1 + rng.Intn(100)),
		}}
	}
	if err := db.Ingest(src); err != nil {
		tb.Fatal(err)
	}
	for i := 0; len(db.IndexStats()) < 2; i++ {
		if i == 50 {
			tb.Fatalf("no auto-indexes after %d warm-up rounds: %v", i, db.IndexStats())
		}
		for class := range readMixClasses {
			if _, err := db.Query(readMixStmt(class, rng, rows)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return db
}

// readMixClasses are the benchmark's statement classes with their weights in
// its read mix, in deck order.
var readMixClasses = []struct {
	name   string
	weight int
}{{"point", 80}, {"range", 10}, {"agg", 3}, {"topk", 3}, {"scan", 4}}

// readMixStmt is benchmark/gen.go's stmtAt with a uniformly drawn parameter:
// the text is almost always new, so the executor answers, not a cache.
func readMixStmt(class int, rng *rand.Rand, rows int) string {
	span := [...]int{1, 100, rows / 2, rows / 2, rows / 10}[class]
	lo := rng.Intn(rows - span + 1)
	switch class {
	case 0:
		return fmt.Sprintf("SELECT name, region, price, qty FROM items WHERE _key = 'it-%07d'", lo)
	case 1:
		return fmt.Sprintf("SELECT _key, slot, price FROM items WHERE slot >= %d AND slot < %d", lo, lo+span)
	case 2:
		return fmt.Sprintf("SELECT region, COUNT(*) AS n, SUM(qty) AS q, MIN(price) AS lo, MAX(price) AS hi FROM items WHERE slot >= %d AND slot < %d GROUP BY region", lo, lo+span)
	case 3:
		return fmt.Sprintf("SELECT _key, price FROM items WHERE slot >= %d AND slot < %d ORDER BY price DESC, _key LIMIT 10", lo, lo+span)
	}
	return fmt.Sprintf("SELECT _key, name, region, price, qty FROM items WHERE slot >= %d AND slot < %d", lo, lo+span)
}

// BenchmarkReadMix runs the benchmark's five read statements on the facade,
// each class alone and then the 80/10/3/3/4 mix, one goroutine: allocs/op
// here is what embedded-read's allocs_per_op gate sees, class by class.
func BenchmarkReadMix(b *testing.B) {
	const rows = 20000
	rng := rand.New(rand.NewSource(1))
	db := benchReadMixDB(b, rng, rows)
	var deck []int
	for class, c := range readMixClasses {
		for i := 0; i < c.weight; i++ {
			deck = append(deck, class)
		}
	}
	run := func(name string, classOf func(i int) int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(readMixStmt(classOf(i), rng, rows)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for class, c := range readMixClasses {
		run(c.name, func(int) int { return class })
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	run("mix", func(i int) int { return deck[i%len(deck)] })
}

// --- E-IDX: secondary-index lookup vs full scan -------------------------

// benchLookupTable builds a 100k-row table where attribute k takes 1000
// distinct values round-robin, so one equality literal selects 0.001 of the
// rows and every zone segment contains every value (no pruning help — the
// benchmark isolates the index itself).
func benchLookupTable(b *testing.B, indexed bool) (*storage.Store, *storage.Table) {
	b.Helper()
	s, err := storage.Open("")
	if err != nil {
		b.Fatal(err)
	}
	tb, err := s.CreateTable("t")
	if err != nil {
		b.Fatal(err)
	}
	if indexed {
		if err := tb.CreateIndex("k"); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 100_000; i++ {
		if _, err := tb.InsertBatch([]model.Record{{
			"k": model.Int(int64(i % 1000)),
			"v": model.Int(int64(i)),
		}}); err != nil {
			b.Fatal(err)
		}
	}
	return s, tb
}

func benchLookup(b *testing.B, tb *storage.Table, now storage.CSN, opt storage.ScanOptions) {
	pred := model.Conjunct{Attr: "k", Op: "=", Val: model.Int(123)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matched := 0
		c := tb.ScanWhere(now, []model.Conjunct{pred}, opt)
		for recs := c.Next(); recs != nil; recs = c.Next() {
			for _, rec := range recs {
				if model.Equal(rec.Get("k"), pred.Val) {
					matched++
				}
			}
		}
		if matched != 100 {
			b.Fatalf("matched %d rows, want 100", matched)
		}
	}
}

// --- E-ING: parallel batched ingest --------------------------------------

// ingestRows sizes the ingest benchmarks: SCDB_INGEST_ROWS overrides the
// 100k default (CI smoke runs set it small).
func ingestRows() int {
	if s := os.Getenv("SCDB_INGEST_ROWS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 100_000
}

func ingestRec(i int) model.Record {
	return model.Record{
		"k":    model.Int(int64(i % 1000)),
		"name": model.String(fmt.Sprintf("row %07d", i)),
	}
}

// benchIngestStore opens a durable group-commit store: every commit waits
// for an fsync, so the batch paths are measured against real durability,
// not a buffered no-op.
func benchIngestStore(b *testing.B) *storage.Table {
	b.Helper()
	s, err := storage.OpenOptions(b.TempDir(), storage.Options{Sync: storage.SyncGroup})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	tb, err := s.CreateTable("t")
	if err != nil {
		b.Fatal(err)
	}
	return tb
}

// BenchmarkIngest compares the instance-layer write paths on a durable
// group-commit store, and one delivery through the curation pipeline.
// Run with -benchtime=1x; each iteration writes ingestRows() rows and the
// rows/s metric is what E-ING records. Per-record commits pay ~1 fsync per
// row; the batch path pays ~1 per 1024 rows; concurrent writers coalesce
// into shared fsyncs.
func BenchmarkIngest(b *testing.B) {
	rows := ingestRows()
	b.Run("per-record", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			tb := benchIngestStore(b)
			start := time.Now()
			for r := 0; r < rows; r++ {
				if _, err := tb.InsertBatch([]model.Record{ingestRec(r)}); err != nil {
					b.Fatal(err)
				}
			}
			total += time.Since(start)
		}
		b.ReportMetric(float64(rows)*float64(b.N)/total.Seconds(), "rows/s")
	})
	b.Run("batch-1024", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			tb := benchIngestStore(b)
			recs := make([]model.Record, rows)
			for r := range recs {
				recs[r] = ingestRec(r)
			}
			start := time.Now()
			for lo := 0; lo < rows; lo += 1024 {
				hi := min(lo+1024, rows)
				if _, err := tb.InsertBatch(recs[lo:hi]); err != nil {
					b.Fatal(err)
				}
			}
			total += time.Since(start)
		}
		b.ReportMetric(float64(rows)*float64(b.N)/total.Seconds(), "rows/s")
	})
	b.Run("group-4writers", func(b *testing.B) {
		// Per-record commits from 4 goroutines: group commit coalesces
		// their waits into shared fsyncs, so throughput sits well above
		// the single-writer per-record floor even on one core.
		var total time.Duration
		for i := 0; i < b.N; i++ {
			tb := benchIngestStore(b)
			start := time.Now()
			var wg sync.WaitGroup
			per := rows / 4
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < per; r++ {
						if _, err := tb.InsertBatch([]model.Record{ingestRec(w*per + r)}); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			total += time.Since(start)
		}
		b.ReportMetric(float64(rows/4*4)*float64(b.N)/total.Seconds(), "rows/s")
	})

	// End-to-end curation: one delivery of rows/20 entities through the
	// full pipeline (storage + catalog + graph + ER + inference) on a
	// durable group-commit engine.
	b.Run("curation-batched", func(b *testing.B) {
		n := max(rows/20, 100)
		src := Source{Name: "feed"}
		for i := 0; i < n; i++ {
			src.Entities = append(src.Entities, Entity{
				Key:   fmt.Sprintf("e-%06d", i),
				Types: []string{"Device"},
				Attrs: Record{"name": fmt.Sprintf("dev-%06d", i), "slot": int64(i)},
			})
		}
		var total time.Duration
		for i := 0; i < b.N; i++ {
			db, err := Open(Options{Dir: b.TempDir(), Axioms: "concept Device", Sync: SyncGroup})
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			if err := db.Ingest(src); err != nil {
				b.Fatal(err)
			}
			total += time.Since(start)
			db.Close()
		}
		b.ReportMetric(float64(n)*float64(b.N)/total.Seconds(), "rows/s")
	})
}

// BenchmarkIndexBuild times one bulk build of an index over a loaded
// table of random floats — what a reader waits for, under the table's write
// lock, when self-curation creates an index (and what Vacuum and
// recovery pay per index).
func BenchmarkIndexBuild(b *testing.B) {
	for _, rows := range []int{20_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			recs := make([]model.Record, rows)
			for i := range recs {
				recs[i] = model.Record{"v": model.Float(rng.Float64() * 1000)}
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := storage.Open("")
				if err != nil {
					b.Fatal(err)
				}
				tb, err := s.CreateTable("t")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tb.InsertBatch(recs); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := tb.CreateIndex("v"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				s.Close()
			}
		})
	}
}

func BenchmarkScanLookup(b *testing.B) {
	s, tb := benchLookupTable(b, false)
	defer s.Close()
	benchLookup(b, tb, s.Now(), storage.ScanOptions{NoIndex: true, NoAuto: true, NoPrune: true})
}

func BenchmarkIndexedLookup(b *testing.B) {
	s, tb := benchLookupTable(b, true)
	defer s.Close()
	benchLookup(b, tb, s.Now(), storage.ScanOptions{})
}
