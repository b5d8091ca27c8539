package main

// The two ingest workloads: one client streams a fixed delivery sequence
// with planted duplicates to one durable server, or through the router to
// three. A delivery is timed from send to the curated ack.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"scdb"
	"scdb/client"
)

// deliveryOp is one delivery the feeder sent.
type deliveryOp struct {
	index  int
	failed bool
	traced bool
	latNS  int64 // what the feeder waited: from send, or in the open loop from when due
	sendNS int64 // from send to ack, whatever the loop
	start  time.Time
	trace  string
}

// deliver sends one delivery and waits for the curated ack. A traced
// delivery goes out as IngestTraced (one frame); the others stream through
// IngestBatch, which is what the router itself uses towards its shards.
func deliver(c *client.Client, src scdb.Source, traced bool) deliveryOp {
	op := deliveryOp{traced: traced, start: time.Now()}
	var err error
	if traced {
		op.trace, err = c.IngestTraced(src)
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), deliveryDeadline)
		_, err = c.IngestBatch(ctx, src, 0)
		cancel()
	}
	op.latNS = time.Since(op.start).Nanoseconds()
	op.sendNS = op.latNS
	op.failed = err != nil
	return op
}

// ingestObs is what a delivery stream yields.
type ingestObs struct {
	latMS     series // untraced, acked deliveries
	attempted int
	failed    int
	ackedRows int
	acked     map[string]int // acked rows per table, prelude included
	planted   int            // planted duplicates among acked deliveries
	elapsed   time.Duration
	traced    []deliveryOp
	all       []delivery // everything sent, prelude included, for the probes
}

func (o *ingestObs) add(op deliveryOp, d delivery) {
	o.attempted++
	if op.failed {
		o.failed++
		return
	}
	o.ackedRows += len(d.src.Entities)
	o.acked[d.src.Name] += len(d.src.Entities)
	o.planted += d.planted
	if op.traced {
		o.traced = append(o.traced, op)
	} else {
		o.latMS = append(o.latMS, float64(op.latNS)/1e6)
	}
}

// prelude is how many deliveries set-up sends before the timed stream. The
// stream arrives at a store that already holds something, as a continuously
// fed store does: every table exists, the stop-word-like blocks have reached
// their cap, and the graph is large enough that a delivery at the end of the
// stream costs less than twice one at its start.
const prelude = 8 * len(feedNames)

// sendPrelude opens the feeder's connection and delivers the prelude.
func sendPrelude(t *topology, st []delivery) (*client.Client, error) {
	c, err := t.dial(t.frontAddr())
	if err != nil {
		return nil, err
	}
	for _, d := range st[:prelude] {
		if op := deliver(c, d.src, false); op.failed {
			return nil, fmt.Errorf("prelude delivery to %s failed", d.src.Name)
		}
	}
	return c, nil
}

// newIngestObs starts the observations of a stream whose prelude is acked.
func newIngestObs(st []delivery) *ingestObs {
	o := &ingestObs{acked: map[string]int{}, all: st}
	for _, d := range st[:prelude] {
		o.acked[d.src.Name] += len(d.src.Entities)
	}
	return o
}

// setupIngest generates the stream, starts the topology and delivers the
// prelude.
func setupIngest(cfg config, kind, dir string, n, per int) (*topology, []delivery, *client.Client, error) {
	st := genStream(cfg.seed, prelude+n, per)
	t, err := startTopology(kind, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	c, err := sendPrelude(t, st)
	if err != nil {
		t.close()
		return nil, nil, nil, err
	}
	return t, st, c, nil
}

// runIngest runs one ingest workload on the given topology.
func runIngest(cfg config, workload, kind string) (*record, error) {
	rec := newRecord(cfg, workload, "fixed stream, one delivery in flight", 1)
	n := cfg.deliveriesPerSecond * cfg.seconds
	rec.Deliveries, rec.EntitiesPerDelivery = n, cfg.entitiesPerDelivery
	log := newSpanLog()

	setupStart := time.Now()
	var st []delivery
	var feeder *client.Client
	t, setupS, err := medianSetup(cfg.setups, func(i int) (*topology, error) {
		tt, ss, cc, err := setupIngest(cfg, kind, filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", i)), n, cfg.entitiesPerDelivery)
		st, feeder = ss, cc
		return tt, err
	})
	if err != nil {
		return nil, err
	}
	defer t.close()
	log.phase("setup", setupStart)

	obs := newIngestObs(st)
	sample := rand.New(rand.NewSource(cfg.seed * 37))
	before := t.counters()
	heap := startHeapProbe()
	windowStart := time.Now()
	for i, d := range st[prelude:] {
		traced := cfg.trace && sample.Intn(cfg.traceSample) == 0
		op := deliver(feeder, d.src, traced)
		op.index = i
		obs.add(op, d)
	}
	obs.elapsed = time.Since(windowStart)
	mallocs, liveMB := heap.stop()
	after := t.counters()
	log.phase("window", windowStart)
	rec.Merges = after.stats.Merges - before.stats.Merges
	rec.Attempted, rec.Failed = obs.attempted, obs.failed

	q, err := t.reader()
	if err != nil {
		return nil, err
	}
	checkTables(rec, "acked_rows_present", q, obs.acked)
	perDup := ratio(float64(after.stats.Merges-before.stats.Merges), float64(obs.planted))
	rec.check("merges_per_planted_dup", perDup >= 0.8 && perDup <= 1.1, "%d merges for %d planted duplicates = %.3f, want 0.8 to 1.1",
		after.stats.Merges-before.stats.Merges, obs.planted, perDup)
	// The stream must measure the pipeline, not the growth of what it has
	// built: a late delivery should cost at most twice an early one. The
	// sizes were frozen so that it does (1.3 to 1.45 times on the seed); a
	// run that breaks it says so, but its outputs are no less correct, and a
	// slow second of the sandbox at the stream's end is enough to break it.
	if tenth := len(obs.latMS) / 10; tenth > 0 {
		first, last := obs.latMS[:tenth].median(), obs.latMS[len(obs.latMS)-tenth:].median()
		if last > 2*first {
			rec.Caveats = append(rec.Caveats, fmt.Sprintf("stream not steady: last decile of deliveries %.1f ms, first decile %.1f ms, frozen to stay within 2x", last, first))
		}
	}
	recoveryS, diskBytes := checkDurability(rec, t, filepath.Join(cfg.workDir, "crash"), obs.acked)

	if !cfg.trace {
		rec.endToEnd(setupS, cfg.setups, liveMB, mallocs)
		return rec, nil
	}

	lo := &layerObs{kind: kind, ingest: obs, before: before, after: after, spans: log, recoveryS: recoveryS, diskBytes: diskBytes}
	if err := lo.adoptIngestTraces(rec); err != nil {
		return nil, err
	}
	probeStart := time.Now()
	if err := lo.probeIngest(cfg); err != nil {
		return nil, err
	}
	log.phase("probes", probeStart)
	lo.emit(rec)
	return rec, finishTrace(cfg, rec, log)
}
