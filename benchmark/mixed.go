package main

// server-mixed: an open loop at fixed rates against one durable server. One
// reader sends point and range reads on a schedule while one writer sends
// small deliveries on another; neither waits for the program, so a stall
// shows as latency on every op that was due during it.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"scdb/client"
)

// schedule paces one open-loop client: op i is due at start + i*every.
//
// Every op counts from when it was due, whatever delayed its send: the
// previous op still waiting for its answer, or the in-process servers keeping
// both cores from the generator. The sandbox's timers are coarse
// (time.Sleep(100µs) returns after 1.1 ms), so even an idle generator wakes
// about half a millisecond late; that constant is inside every latency of
// this workload and is reported as generator lag.
type schedule struct {
	start time.Time
	every time.Duration
}

func everyAt(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate) }

// wait blocks until op i is due. It returns the due time, which the op
// counts from, and how late the generator woke; an op that was already due
// when the previous one completed has no lag, it was queued behind the
// program.
func (s schedule) wait(i int) (due time.Time, lag time.Duration) {
	due = s.start.Add(time.Duration(i) * s.every)
	d := time.Until(due)
	if d <= 0 {
		return due, 0
	}
	time.Sleep(d)
	return due, time.Since(due)
}

// backlogLimit is how far behind its schedule a client may be when the
// window closes. Past it the system was not keeping up with the fixed rate
// and the run fails instead of reporting latencies of a growing queue.
const backlogLimit = time.Second

func runMixed(cfg config, workload string) (*record, error) {
	rec := newRecord(cfg, workload, "open", 2)
	rec.CorpusRows = cfg.corpusRows
	rec.ReadRate, rec.DeliveryRate = cfg.mixedReadRate, cfg.mixedDeliveryRate
	nDel := int(cfg.mixedDeliveryRate * float64(cfg.seconds))
	nRead := int(cfg.mixedReadRate * float64(cfg.seconds))
	rec.Deliveries, rec.EntitiesPerDelivery = nDel, cfg.mixedEntitiesPerDel
	log := newSpanLog()

	setupStart := time.Now()
	var c *corpus
	var st []delivery
	var feeder *client.Client
	t, setupS, err := medianSetup(cfg.setups, func(i int) (*topology, error) {
		tt, cc, err := setupRead(cfg, topoServer, filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", i)), mixedMix)
		if err != nil {
			return nil, err
		}
		c = cc
		st = genStream(cfg.seed, prelude+nDel, cfg.mixedEntitiesPerDel)
		if feeder, err = sendPrelude(tt, st); err != nil {
			tt.close()
			return nil, err
		}
		return tt, nil
	})
	if err != nil {
		return nil, err
	}
	defer t.close()
	log.phase("setup", setupStart)

	reader, err := t.reader()
	if err != nil {
		return nil, err
	}
	gen := newStmtGen(c, cfg.seed, 0, mixedMix)
	sampleR := rand.New(rand.NewSource(cfg.seed * 41))
	sampleW := rand.New(rand.NewSource(cfg.seed * 43))
	sampleEvery := 0
	if cfg.trace {
		sampleEvery = cfg.traceSample
	}

	reads := make([]readOp, 0, nRead)
	dels := make([]deliveryOp, 0, nDel)
	var lateR, lateW series
	before := t.counters()
	heap := startHeapProbe()
	windowStart := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the reader
		defer wg.Done()
		s := schedule{start: windowStart, every: everyAt(cfg.mixedReadRate)}
		for i := 0; i < nRead; i++ {
			due, lag := s.wait(i)
			lateR = append(lateR, ms(lag))
			st := gen.draw()
			op := doRead(reader, c, st, sampleEvery > 0 && sampleR.Intn(sampleOf(st.class, sampleEvery)) == 0)
			op.latNS = time.Since(due).Nanoseconds()
			op.doneNS = time.Since(windowStart).Nanoseconds()
			reads = append(reads, op)
		}
	}()
	go func() { // the writer
		defer wg.Done()
		s := schedule{start: windowStart, every: everyAt(cfg.mixedDeliveryRate)}
		for i, d := range st[prelude:] {
			due, lag := s.wait(i)
			lateW = append(lateW, ms(lag))
			op := deliver(feeder, d.src, sampleEvery > 0 && sampleW.Intn(sampleEvery) == 0)
			op.index, op.latNS = i, time.Since(due).Nanoseconds()
			dels = append(dels, op)
		}
	}()
	wg.Wait()
	elapsed := time.Since(windowStart)
	mallocs, liveMB := heap.stop()
	after := t.counters()
	log.phase("window", windowStart)

	robs := observeReads([][]readOp{reads}, elapsed)
	iobs := newIngestObs(st)
	iobs.elapsed = elapsed
	for _, op := range dels {
		iobs.add(op, st[prelude+op.index])
	}
	rec.Attempted = robs.attempted + iobs.attempted
	rec.Failed = robs.failed + iobs.failed

	// The window is nominally cfg.seconds long; the last op of each client
	// was due just before that, so overrun is the backlog at the close.
	overrun := elapsed - time.Duration(cfg.seconds)*time.Second
	rec.check("no_backlog", overrun < backlogLimit, "the window closed %.0f ms after its last op was due; limit %v", ms(overrun), backlogLimit)
	checkProbes(rec, t, c, cfg.seed)
	checkTables(rec, "acked_rows_present", reader, iobs.acked)

	if !cfg.trace {
		rec.endToEnd(setupS, cfg.setups, liveMB, mallocs)
		return rec, nil
	}

	lo := &layerObs{kind: topoServer, reads: robs, tracedReads: robs, ingest: iobs, before: before, after: after, spans: log,
		lagMS: append(lateR, lateW...)}
	if err := lo.adoptReadTraces(rec); err != nil {
		return nil, err
	}
	if err := lo.adoptIngestTraces(rec); err != nil {
		return nil, err
	}
	probeStart := time.Now()
	if err := lo.probeReads(cfg, t, c); err != nil {
		return nil, err
	}
	if err := lo.probeIngest(cfg); err != nil {
		return nil, err
	}
	log.phase("probes", probeStart)
	lo.emit(rec)
	return rec, finishTrace(cfg, rec, log)
}
