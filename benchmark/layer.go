package main

// Per-layer attribution, measured from outside. Three sources only, none
// needing a change to the program: the harness's own spans around calls
// into public functions, deltas of public counters, and the span trees the
// program already returns (TRACE <stmt>, client.IngestTraced).

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"scdb"
	"scdb/client"
	"scdb/internal/model"
	"scdb/internal/query"
	"scdb/internal/server"
	"scdb/internal/storage"
)

// tracedRead is one sampled read with its tree parsed.
type tracedRead struct {
	class     int
	text      string
	harnessUS float64
	tree      *traceNode
}

// layerObs gathers what a traced run observed and turns it into the
// per-layer metrics.
type layerObs struct {
	kind        string
	reads       *readObs // the untraced window (or the open loop's one window)
	tracedReads *readObs // the traced window
	ingest      *ingestObs
	before      counters // around the untraced read window, or the stream
	after       counters
	spans       *spanLog
	recoveryS   float64
	diskBytes   int64
	lagMS       series

	trees      []tracedRead
	deliveries []*traceNode
	probes     map[string]float64
	probeN     map[string]int
}

func (lo *layerObs) probe(name string, v float64, n int) {
	if lo.probes == nil {
		lo.probes, lo.probeN = map[string]float64{}, map[string]int{}
	}
	lo.probes[name], lo.probeN[name] = v, n
}

// adoptReadTraces parses the sampled reads' trees and hangs them in the
// span log under the harness span of the call that fetched them.
func (lo *layerObs) adoptReadTraces(rec *record) error {
	for _, op := range lo.tracedReads.traced {
		tree, err := parseTrace(op.trace)
		if err != nil {
			return err
		}
		lo.trees = append(lo.trees, tracedRead{class: op.class, text: op.text, harnessUS: float64(op.sendNS) / 1e3, tree: tree})
		lo.spans.op("client."+classNames[op.class], op.start, op.start.Add(time.Duration(op.sendNS)), tree)
	}
	rec.Caveats = append(rec.Caveats,
		"TRACE skips the materialization cache: execute spans are the uncached cost, while untraced latencies include cache hits",
		"open-loop latencies start when an op was due; a traced op's harness span starts when it was sent")
	if lo.kind == topoRouter {
		rec.Caveats = append(rec.Caveats, "through the router a TRACE tree is shard 0's local tree, not the cluster's")
	}
	return nil
}

func (lo *layerObs) adoptIngestTraces(rec *record) error {
	for _, op := range lo.ingest.traced {
		tree, err := parseTrace(op.trace)
		if err != nil {
			return err
		}
		lo.deliveries = append(lo.deliveries, tree)
		lo.spans.op("client.delivery", op.start, op.start.Add(time.Duration(op.sendNS)), tree)
	}
	if lo.kind == topoRouter {
		rec.Caveats = append(rec.Caveats, "a traced delivery through the router returns the router's request span only: curate.* and er.*_ms read 0 here")
	}
	return nil
}

// treeSeries collects f over the sampled trees of one class (or of every
// class when class < 0).
func (lo *layerObs) treeSeries(class int, f func(tracedRead) (float64, bool)) series {
	var s series
	for _, tr := range lo.trees {
		if class >= 0 && tr.class != class {
			continue
		}
		if v, ok := f(tr); ok {
			s = append(s, v)
		}
	}
	return s
}

func spanDur(name string) func(tracedRead) (float64, bool) {
	return func(tr tracedRead) (float64, bool) {
		n := tr.tree.find(name)
		if n == nil {
			return 0, false
		}
		return float64(n.DurUS), true
	}
}

// emit writes every per-layer metric into the record; what the workload
// did not exercise stays 0.
func (lo *layerObs) emit(rec *record) {
	for _, m := range perLayer {
		rec.set(m.Name, m.Unit, 0, 0)
	}
	set := func(name string, v float64, n int) {
		for _, m := range perLayer {
			if m.Name == name {
				rec.set(name, m.Unit, v, n)
				return
			}
		}
		panic("metric not in the manifest: " + name)
	}
	setSeries := func(name string, s series) { set(name, s.median(), len(s)) }
	remote := lo.kind != topoEmbedded
	attempted, failed := 0, 0

	if r := lo.reads; r != nil {
		attempted, failed = attempted+r.attempted, failed+r.failed
		set("client.read_ops_per_s", r.slices.median(), len(r.slices))
		setSeries("client.point_p50_us", r.latUS[classPoint])
		if v, ok := r.latUS[classPoint].tail(0.99); ok {
			set("client.point_p99_us", v, len(r.latUS[classPoint]))
		}
		setSeries("client.range_p50_us", r.latUS[classRange])
		set("client.agg_p50_ms", r.latUS[classAgg].median()/1e3, len(r.latUS[classAgg]))
		set("client.topk_p50_ms", r.latUS[classTopK].median()/1e3, len(r.latUS[classTopK]))
		set("client.scan_p50_ms", r.latUS[classScan].median()/1e3, len(r.latUS[classScan]))
		set("core.mat_cache_hit_rate", ratio(float64(r.pointHits), float64(len(r.latUS[classPoint]))), len(r.latUS[classPoint]))
		reads := float64(r.attempted - r.failed)
		dp := lo.after.plan
		set("core.plan_cache_hit_rate", ratio(float64(dp.Hits-lo.before.plan.Hits),
			float64(dp.Hits-lo.before.plan.Hits+dp.Misses-lo.before.plan.Misses)), int(reads))
		set("storage.index_hits_per_read", ratio(float64(lo.after.indexHits-lo.before.indexHits), reads), int(reads))
		if lo.kind == topoRouter {
			ds := lo.after.sharding
			set("shard.partial_rows_per_query", ratio(float64(ds.PartialRows-lo.before.sharding.PartialRows),
				float64(ds.ScatterQueries-lo.before.sharding.ScatterQueries)), int(ds.ScatterQueries-lo.before.sharding.ScatterQueries))
		}
		if tr := lo.tracedReads; tr != nil && tr != r {
			set("obs.trace_overhead_share", 1-ratio(tr.slices.median(), r.slices.median()), len(tr.slices))
		}
	}
	set("storage.auto_indexes", float64(lo.after.autoIndex), 1)

	if len(lo.trees) > 0 {
		setSeries("core.plan_us", lo.treeSeries(-1, spanDur("plan")))
		for class := 0; class < numClasses; class++ {
			setSeries("core.execute_us."+classNames[class], lo.treeSeries(class, spanDur("execute")))
		}
		for _, class := range []int{classPoint, classRange, classAgg} {
			setSeries("query.rows_in_per_row_out."+classNames[class], lo.treeSeries(class, func(tr tracedRead) (float64, bool) {
				in, ok := tr.tree.leafRowsIn()
				ex := tr.tree.find("execute")
				if !ok || ex == nil || ex.RowsOut == nil || *ex.RowsOut == 0 {
					return 0, false
				}
				return float64(in) / float64(*ex.RowsOut), true
			}))
		}
		for _, class := range []int{classAgg, classScan} {
			setSeries("query.scan_busy_us."+classNames[class], lo.treeSeries(class, func(tr tracedRead) (float64, bool) {
				return tr.tree.scanBusyUS(), true
			}))
		}
		if remote {
			setSeries("server.frame_decode_us", lo.treeSeries(-1, spanDur("frame_decode")))
			setSeries("server.admission_wait_us", lo.treeSeries(-1, spanDur("admission_wait")))
			// A TRACE answers with its tree, not with rows. For a point
			// read both answers are small, so the traced call itself shows
			// the wire: its harness span minus the program's request span.
			setSeries("client.wire_us.point", lo.treeSeries(classPoint, func(tr tracedRead) (float64, bool) {
				return tr.harnessUS - float64(tr.tree.DurUS), true
			}))
			// For a scan the rows are the wire cost, so the untraced scans
			// (never cached: each text is new) are set against the traced
			// scans' request spans, median against median.
			req := lo.treeSeries(classScan, func(tr tracedRead) (float64, bool) { return float64(tr.tree.DurUS), true })
			if r := lo.reads; r != nil && len(req) > 0 && len(r.latUS[classScan]) > 0 {
				set("client.wire_us.scan", r.latUS[classScan].median()-req.median(), len(req))
			}
		}
	}

	if in := lo.ingest; in != nil {
		attempted, failed = attempted+in.attempted, failed+in.failed
		dels, rows := float64(in.attempted-in.failed), float64(in.ackedRows)
		set("client.ingest_rows_per_s", ratio(rows, in.elapsed.Seconds()), in.ackedRows)
		setSeries("client.delivery_p50_ms", in.latMS)
		if v, ok := in.latMS.tail(0.90); ok {
			set("client.delivery_p90_ms", v, len(in.latMS))
		}
		w, w0 := lo.after.wal, lo.before.wal
		set("storage.wal_fsyncs_per_delivery", ratio(float64(w.Fsyncs-w0.Fsyncs), dels), int(dels))
		set("storage.wal_commit_wait_ms_per_delivery", ratio(ms(w.CommitWait-w0.CommitWait), dels), int(dels))
		set("storage.wal_bytes_per_row", ratio(float64(w.Bytes-w0.Bytes), rows), int(rows))
		set("storage.checkpoints", float64(w.Checkpoints-w0.Checkpoints), 1)
		set("storage.checkpoint_ms", ms(w.CheckpointTime-w0.CheckpointTime), int(w.Checkpoints-w0.Checkpoints))
		if lo.diskBytes > 0 {
			set("storage.wal_bytes_per_user_byte", ratio(float64(lo.diskBytes), lo.probes["user_bytes"]), 1)
			set("storage.recovery_s", lo.recoveryS, 1)
		}
		e, e0 := lo.after.stats.ER, lo.before.stats.ER
		merges := float64(lo.after.stats.Merges - lo.before.stats.Merges)
		set("er.candidates_per_row", ratio(float64(e.Candidates-e0.Candidates), rows), int(rows))
		set("er.comparisons_per_row", ratio(float64(e.Comparisons-e0.Comparisons), rows), int(rows))
		set("er.block_skips", float64(e.BlockSkips-e0.BlockSkips), int(rows))
		set("er.merges_per_comparison", ratio(merges, float64(e.Comparisons-e0.Comparisons)), e.Comparisons-e0.Comparisons)
		set("er.merges_per_planted_dup", ratio(merges, float64(in.planted)), in.planted)
		if lo.kind == topoRouter {
			s, s0 := lo.after.sharding, lo.before.sharding
			set("shard.digests_per_delivery", ratio(float64(s.Digests-s0.Digests), dels), int(dels))
			set("shard.cross_comparisons_per_delivery", ratio(float64(s.CrossComparisons-s0.CrossComparisons), dels), int(dels))
			set("shard.cross_merges", float64(s.CrossMerges-s0.CrossMerges), 1)
			set("shard.exchange_rounds", float64(s.ExchangeRounds-s0.ExchangeRounds), 1)
		}
		stage := func(name, spanName string) {
			var s series
			for _, tree := range lo.deliveries {
				if n := tree.find(spanName); n != nil {
					s = append(s, float64(n.DurUS)/1e3)
				}
			}
			setSeries(name, s)
		}
		stage("curate.decode_ms", "ingest.decode")
		stage("curate.install_ms", "ingest.install")
		stage("curate.relate_ms", "ingest.relate")
		stage("curate.integrate_ms", "ingest.integrate")
		stage("curate.infer_ms", "ingest.infer")
		stage("er.block_ms", "ingest.block")
		stage("er.score_ms", "ingest.score")
	}

	if remote {
		set("server.rejected", float64(lo.after.srv.Rejected-lo.before.srv.Rejected), 1)
		set("server.canceled", float64(lo.after.srv.Canceled-lo.before.srv.Canceled), 1)
		set("server.in_flight_peak", float64(lo.after.srv.InFlightPeak), 1)
	}
	set("client.failed_ops_share", ratio(float64(failed), float64(attempted)), attempted)
	if len(lo.lagMS) > 0 {
		set("client.generator_lag_ms", lo.lagMS.quantile(0.99), len(lo.lagMS))
	}
	for name, v := range lo.probes {
		if name != "user_bytes" {
			set(name, v, lo.probeN[name])
		}
	}
}

// maxProbeInputs bounds how many sampled inputs a direct-call probe runs.
const maxProbeInputs = 200

// probeReads runs the direct-call probes on the sampled read inputs, after
// the window: the parser, the optimizer, the row-batch codec and, behind a
// router, the scatter overhead.
func (lo *layerObs) probeReads(cfg config, t *topology, c *corpus) error {
	texts := make([]string, 0, maxProbeInputs)
	for _, tr := range lo.trees {
		if len(texts) < maxProbeInputs {
			texts = append(texts, tr.text)
		}
	}
	if len(texts) == 0 {
		return nil
	}
	var parse series
	for _, text := range texts {
		start := time.Now()
		if _, err := query.Parse(text); err != nil {
			return fmt.Errorf("probe parse: %w", err)
		}
		parse = append(parse, us(time.Since(start)))
	}
	lo.probe("query.parse_us", parse.median(), len(parse))

	// Explain on statement text the engine has not seen, as agg and topk
	// texts never have: parse + plan + optimize, minus the parse.
	fresh := newStmtGen(c, cfg.seed, 555, readMix)
	var explain series
	for i := 0; i < 50; i++ {
		s := fresh.ofClass([]int{classAgg, classTopK}[i%2])
		start := time.Now()
		if _, err := t.dbs[0].Explain(s.text); err != nil {
			return fmt.Errorf("probe explain: %w", err)
		}
		d := us(time.Since(start))
		start = time.Now()
		query.Parse(s.text)
		explain = append(explain, d-us(time.Since(start)))
	}
	lo.probe("optimizer.explain_us", explain.median(), len(explain))

	if lo.kind == topoEmbedded {
		return nil
	}
	if err := lo.probeRowCodec(t, c, fresh); err != nil {
		return err
	}
	if lo.kind == topoRouter {
		return lo.probeScatter(t, fresh)
	}
	return nil
}

// probeRowCodec times the v2 row-batch codec alone on the scan class's
// batches: the rows of a few scans, cut into executor-sized batches.
func (lo *layerObs) probeRowCodec(t *topology, c *corpus, g *stmtGen) error {
	q, err := t.reader()
	if err != nil {
		return err
	}
	const batchRows = 1024
	var enc, dec series
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), readDeadline)
		rows, _, err := q.QueryInfoCtx(ctx, g.ofClass(classScan).text)
		cancel()
		if err != nil {
			return fmt.Errorf("probe codec: %w", err)
		}
		vals := make([][]model.Value, len(rows.Data))
		for r, row := range rows.Data {
			vals[r] = make([]model.Value, len(row))
			for j, v := range row {
				if vals[r][j], err = scdb.ToValue(v); err != nil {
					return err
				}
			}
		}
		for at := 0; at < len(vals); at += batchRows {
			batch := vals[at:min(at+batchRows, len(vals))]
			e := server.GetV2Enc()
			start := time.Now()
			frame := server.EncodeV2RowBatch(e, 1, batch)
			encDur := time.Since(start)
			f, err := server.ReadV2Frame(bytes.NewReader(frame), 0)
			e.Release()
			if err != nil {
				return fmt.Errorf("probe codec: %w", err)
			}
			start = time.Now()
			out, err := server.DecodeV2RowBatch(f.Payload, nil)
			decDur := time.Since(start)
			if err != nil || len(out) != len(batch) {
				return fmt.Errorf("probe codec: decoded %d of %d rows: %v", len(out), len(batch), err)
			}
			k := float64(len(batch)) / 1000
			enc, dec = append(enc, us(encDur)/k), append(dec, us(decDur)/k)
		}
	}
	lo.probe("server.encode_us_per_krow", enc.median(), len(enc))
	lo.probe("server.decode_us_per_krow", dec.median(), len(dec))
	return nil
}

// probeScatter sets a routed call against the slowest direct call on the
// three shards. The direct calls take the class's next statement, not the
// same text: the routed call has just put its answer into the shards'
// materialization caches, and a sibling statement of the same class does
// the same work without finding it there.
func (lo *layerObs) probeScatter(t *topology, g *stmtGen) error {
	routed, err := t.dial(t.frontAddr())
	if err != nil {
		return err
	}
	direct := make([]*client.Client, len(t.servers))
	for i, s := range t.servers {
		if direct[i], err = t.dial(s.Addr().String()); err != nil {
			return err
		}
	}
	timed := func(c *client.Client, text string) (float64, error) {
		ctx, cancel := context.WithTimeout(context.Background(), readDeadline)
		defer cancel()
		start := time.Now()
		_, err := c.QueryCtx(ctx, text)
		return us(time.Since(start)), err
	}
	for _, class := range []int{classPoint, classAgg, classTopK, classScan} {
		var over series
		for i := 0; i < 20; i++ {
			r, err := timed(routed, g.ofClass(class).text)
			if err != nil {
				return fmt.Errorf("probe scatter: %w", err)
			}
			sibling := g.ofClass(class).text
			var slowest float64
			for _, c := range direct {
				d, err := timed(c, sibling)
				if err != nil {
					return fmt.Errorf("probe scatter: %w", err)
				}
				slowest = max(slowest, d)
			}
			over = append(over, r-slowest)
		}
		lo.probe("shard.scatter_overhead_us."+classNames[class], over.median(), len(over))
	}
	return nil
}

// probeIngest runs the direct-call probes on the delivered inputs: the v2
// ingest-chunk codec, and Table.InsertBatch of the same records into a
// scratch store under group commit. It also sizes the user payload.
func (lo *layerObs) probeIngest(cfg config) error {
	in := lo.ingest
	var userBytes float64
	var codec series
	for i, d := range in.all {
		e := server.GetV2Enc()
		start := time.Now()
		frame, err := server.EncodeV2IngestChunk(e, 1, server.V2Chunk{Entities: d.src.Entities})
		encDur := time.Since(start)
		if err != nil {
			e.Release()
			return fmt.Errorf("probe ingest codec: %w", err)
		}
		userBytes += float64(len(frame))
		f, err := server.ReadV2Frame(bytes.NewReader(frame), 0)
		e.Release()
		if err != nil {
			return fmt.Errorf("probe ingest codec: %w", err)
		}
		if i >= maxProbeInputs {
			continue // every delivery is sized, the first ones are timed
		}
		start = time.Now()
		chunk, err := server.DecodeV2IngestChunk(f.Payload)
		decDur := time.Since(start)
		if err != nil || len(chunk.Entities) != len(d.src.Entities) {
			return fmt.Errorf("probe ingest codec: decoded %d of %d entities: %v", len(chunk.Entities), len(d.src.Entities), err)
		}
		codec = append(codec, us(encDur+decDur)/(float64(len(d.src.Entities))/1000))
	}
	lo.probe("user_bytes", userBytes, len(in.all))
	lo.probe("server.ingest_codec_us_per_krow", codec.median(), len(codec))

	dir := filepath.Join(cfg.workDir, "scratch-store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := storage.OpenOptions(dir, storage.Options{Sync: storage.SyncGroup})
	if err != nil {
		return fmt.Errorf("probe insert: %w", err)
	}
	defer store.Close()
	tables := map[string]*storage.Table{}
	var insert series
	for i, d := range in.all {
		if i >= maxProbeInputs {
			break
		}
		tab := tables[d.src.Name]
		if tab == nil {
			if tab, err = store.CreateTable(d.src.Name); err != nil {
				return fmt.Errorf("probe insert: %w", err)
			}
			tables[d.src.Name] = tab
		}
		recs := make([]model.Record, len(d.src.Entities))
		for j, ent := range d.src.Entities {
			recs[j] = model.Record{"_key": model.String(ent.Key)}
			for _, k := range sortedAttrs(ent.Attrs) {
				if recs[j][k], err = scdb.ToValue(ent.Attrs[k]); err != nil {
					return err
				}
			}
		}
		start := time.Now()
		if _, err := tab.InsertBatch(recs); err != nil {
			return fmt.Errorf("probe insert: %w", err)
		}
		insert = append(insert, us(time.Since(start))/float64(len(recs)))
	}
	lo.probe("storage.insert_batch_us_per_row", insert.median(), len(insert))
	return nil
}

func sortedAttrs(r scdb.Record) []string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// finishTrace writes the span file beside the run's scratch directory and
// notes it, with the self time of every span name, in the record.
func finishTrace(cfg config, rec *record, log *spanLog) error {
	path := filepath.Join(filepath.Dir(cfg.workDir), fmt.Sprintf("spans-%s-%d.jsonl", rec.Workload, cfg.seed))
	if err := log.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rec.SpanFile = path
	rec.SelfTimeUS = log.selfTimes()
	return nil
}
