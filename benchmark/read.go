package main

// The three read workloads: the same closed-loop read mix on the facade,
// through one server, and through the router over three shards.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// readOp is one read a client completed (or failed) inside a window.
type readOp struct {
	class    int
	traced   bool
	failed   bool
	cacheHit bool
	doneNS   int64     // completion, since the window began
	latNS    int64     // what the caller waited: from send, or in the open loop from when due
	sendNS   int64     // from send to answer, whatever the loop
	start    time.Time // kept for traced ops only
	text     string    // statement text, traced ops only
	trace    string    // the returned tree, traced ops only
}

// wantRows is how many rows a correct answer of a class has; 0 means any
// positive number (the group count of an aggregate depends on the data).
func (c *corpus) wantRows(class int) int {
	switch class {
	case classPoint:
		return 1
	case classRange:
		return rangeRows
	case classTopK:
		return 10
	case classScan:
		return c.scanRows()
	}
	return 0
}

// doRead sends one statement and judges the answer's shape. A full
// comparison against the oracle runs on the probe set after the window;
// inside it only the row count is checked, which costs nothing.
func doRead(q querier, c *corpus, s stmt, traced bool) readOp {
	op := readOp{class: s.class, traced: traced}
	text := s.text
	if traced {
		text = "TRACE " + text
		op.text = s.text
	}
	ctx, cancel := context.WithTimeout(context.Background(), readDeadline)
	start := time.Now()
	rows, info, err := q.QueryInfoCtx(ctx, text)
	op.latNS = time.Since(start).Nanoseconds()
	op.sendNS = op.latNS
	cancel()
	switch {
	case err != nil:
		op.failed = true
	case traced:
		op.start = start
		if op.trace, err = traceText(rows); err != nil {
			op.failed = true
		}
	default:
		want := c.wantRows(s.class)
		op.failed = len(rows.Data) == 0 || (want > 0 && len(rows.Data) != want)
		op.cacheHit = info != nil && info.CacheHit
	}
	return op
}

// sampleOf is the traced share of a class: one in every for point and range
// reads, one in every/5 for the wide classes. Those are a tenth of the mix,
// so at the plain rate a window would trace two or three of each; and their
// texts are new each time, so they never come from the materialization
// cache and TRACE, which skips it, changes nothing in what they cost.
func sampleOf(class, every int) int {
	if class >= classAgg {
		return max(1, every/5)
	}
	return every
}

// closedLoop runs one client per reader for dur: each sends its next read
// only when the previous one has completed. With sampleEvery > 0, a seeded
// one in sampleEvery reads goes out as TRACE <stmt>.
func closedLoop(readers []querier, gens []*stmtGen, c *corpus, seed int64, dur time.Duration, sampleEvery int) ([][]readOp, time.Duration) {
	ops := make([][]readOp, len(readers))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i := range readers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sample := rand.New(rand.NewSource(seed*31 + int64(i)))
			out := make([]readOp, 0, 1<<16)
			for time.Now().Before(deadline) {
				s := gens[i].draw()
				op := doRead(readers[i], c, s, sampleEvery > 0 && sample.Intn(sampleOf(s.class, sampleEvery)) == 0)
				op.doneNS = time.Since(start).Nanoseconds()
				out = append(out, op)
			}
			ops[i] = out
		}(i)
	}
	wg.Wait()
	return ops, time.Since(start)
}

// warmUp runs the mix until the engine has stopped adapting to it. Access
// paths are self-curated: the first statements of a class make the store
// build an index, and a statement that arrives while it does takes many
// times its steady latency. So warm-up first touches every class a few
// times with different parameters, then runs the mix on both clients until
// the set of indexes has been the same for warmStable (at most warmCap).
func warmUp(t *topology, c *corpus, cfg config, weights [numClasses]int) error {
	readers := make([]querier, readClients)
	gens := make([]*stmtGen, readClients)
	for i := range readers {
		q, err := t.reader()
		if err != nil {
			return err
		}
		defer t.release(q)
		readers[i], gens[i] = q, newStmtGen(c, cfg.seed, 100+i, weights)
	}
	for class, w := range weights {
		for i := 0; w > 0 && i < 5; i++ {
			if op := doRead(readers[0], c, gens[0].ofClass(class), false); op.failed {
				return fmt.Errorf("warm-up: a %s read failed", classNames[class])
			}
		}
	}
	var stop atomic.Bool
	var failed atomic.Int64
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for !stop.Load() {
				if op := doRead(readers[i], c, gens[i].draw(), false); op.failed {
					failed.Add(1)
				}
			}
		}(i)
	}
	begin := time.Now()
	sig, since := t.indexSignature(), time.Now()
	for time.Since(since) < cfg.warmStable && time.Since(begin) < cfg.warmCap {
		time.Sleep(25 * time.Millisecond)
		if s := t.indexSignature(); s != sig {
			sig, since = s, time.Now()
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("warm-up: %d reads failed", n)
	}
	return nil
}

// setupRead generates the corpus, starts the topology, loads the corpus
// through its front door and warms it up: everything setup_s counts.
func setupRead(cfg config, kind, dir string, weights [numClasses]int) (*topology, *corpus, error) {
	c := genCorpus(cfg.seed, cfg.corpusRows)
	t, err := startTopology(kind, dir)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := t.load(ctx, c.source()); err != nil {
		t.close()
		return nil, nil, fmt.Errorf("load corpus: %w", err)
	}
	if err := warmUp(t, c, cfg, weights); err != nil {
		t.close()
		return nil, nil, err
	}
	return t, c, nil
}

// readObs is what a read window yields, split by class.
type readObs struct {
	latUS     [numClasses]series // untraced, successful reads
	attempted int
	failed    int
	pointHits int    // point reads answered from the materialization cache
	slices    series // untraced completions per whole 1-second slice
	traced    []readOp
}

func observeReads(ops [][]readOp, elapsed time.Duration) *readObs {
	o := &readObs{}
	whole := int(elapsed / time.Second)
	counts := make([]float64, whole)
	for _, client := range ops {
		for _, op := range client {
			o.attempted++
			if op.failed {
				o.failed++
				continue
			}
			if s := int(op.doneNS / int64(time.Second)); s < whole {
				counts[s]++
			}
			if op.traced {
				o.traced = append(o.traced, op)
				continue
			}
			o.latUS[op.class] = append(o.latUS[op.class], float64(op.latNS)/1e3)
			if op.class == classPoint && op.cacheHit {
				o.pointHits++
			}
		}
	}
	o.slices = counts
	return o
}

// runRead runs one read workload on the given topology.
func runRead(cfg config, workload, kind string) (*record, error) {
	rec := newRecord(cfg, workload, "closed", readClients)
	rec.CorpusRows = cfg.corpusRows
	log := newSpanLog()

	setupStart := time.Now()
	var c *corpus
	t, setupS, err := medianSetup(cfg.setups, func(i int) (*topology, error) {
		tt, cc, err := setupRead(cfg, kind, filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", i)), readMix)
		c = cc
		return tt, err
	})
	if err != nil {
		return nil, err
	}
	defer t.close()
	log.phase("setup", setupStart)

	readers := make([]querier, readClients)
	gens := make([]*stmtGen, readClients)
	for i := range readers {
		if readers[i], err = t.reader(); err != nil {
			return nil, err
		}
		gens[i] = newStmtGen(c, cfg.seed, i, readMix)
	}

	window := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		window /= 2 // an untraced half, then a traced half
	}
	before := t.counters()
	heap := startHeapProbe()
	windowStart := time.Now()
	ops, elapsed := closedLoop(readers, gens, c, cfg.seed, window, 0)
	mallocs, liveMB := heap.stop()
	after := t.counters()
	log.phase("window.untraced", windowStart)
	plain := observeReads(ops, elapsed)
	rec.Attempted, rec.Failed = plain.attempted, plain.failed

	checkProbes(rec, t, c, cfg.seed)
	checkBypass(rec, kind, before, after)

	if !cfg.trace {
		rec.endToEnd(setupS, cfg.setups, liveMB, mallocs)
		return rec, nil
	}

	windowStart = time.Now()
	ops, elapsed = closedLoop(readers, gens, c, cfg.seed, window, cfg.traceSample)
	log.phase("window.traced", windowStart)
	traced := observeReads(ops, elapsed)
	rec.Attempted += traced.attempted
	rec.Failed += traced.failed

	lo := &layerObs{kind: kind, reads: plain, tracedReads: traced, before: before, after: after, spans: log}
	if err := lo.adoptReadTraces(rec); err != nil {
		return nil, err
	}
	probeStart := time.Now()
	if err := lo.probeReads(cfg, t, c); err != nil {
		return nil, err
	}
	log.phase("probes", probeStart)
	lo.emit(rec)
	return rec, finishTrace(cfg, rec, log)
}
