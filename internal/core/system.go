package core

import (
	"fmt"
	"maps"
	"slices"

	"scdb/internal/model"
	"scdb/internal/obs"
	"scdb/internal/query"
	"scdb/internal/storage"
)

// The engine describes itself in SCQL. Open creates the node's one
// obs.Registry and registers the engine's gauges next to the counters they
// read, and the system tables sys.tables, sys.columns and sys.indexes; the
// server fronting the engine registers its own instruments and tables into
// the same registry. FROM sys.<name> reads it: sys.metrics a (name, value)
// row per instrument, any other name a registered table. A registered
// system relation wins over a same-named table, as claims does.
//
// Lock rule: gauges and system tables read the engine through its locking
// accessors (Stats, IndexStats) and the store under its own latches, so a
// statement builds the system relations it reads before it takes db.mu
// (queryCtx), never under it.

// statsGauges names each count of Stats as a gauge.
var statsGauges = []struct {
	name  string
	field func(*Stats) *int
}{
	{"engine.tables", func(s *Stats) *int { return &s.Tables }},
	{"engine.entities", func(s *Stats) *int { return &s.Entities }},
	{"engine.edges", func(s *Stats) *int { return &s.Edges }},
	{"engine.concepts", func(s *Stats) *int { return &s.Concepts }},
	{"engine.inferred_types", func(s *Stats) *int { return &s.InferredTypes }},
	{"engine.witnesses", func(s *Stats) *int { return &s.Witnesses }},
	{"engine.inconsistencies", func(s *Stats) *int { return &s.Inconsistencies }},
	{"engine.merges_total", func(s *Stats) *int { return &s.Merges }},
	{"engine.claims", func(s *Stats) *int { return &s.Claims }},
	{"er.comparisons", func(s *Stats) *int { return &s.ER.Comparisons }},
	{"er.candidates", func(s *Stats) *int { return &s.ER.Candidates }},
	{"er.ann_probes", func(s *Stats) *int { return &s.ER.ANNProbes }},
	{"er.blocks", func(s *Stats) *int { return &s.ER.Blocks }},
	{"er.block_skips", func(s *Stats) *int { return &s.ER.BlockSkips }},
	{"er.matches", func(s *Stats) *int { return &s.ER.Matches }},
}

// cacheHitRate is the gauge of Stats.CacheHitRate, its one fraction.
const cacheHitRate = "engine.cache_hit_rate"

// RegisterStats registers a gauge per number of Stats, all read off one
// stats() call per registry read: an engine's own snapshot, or a router's
// sum over its shards.
func RegisterStats(reg *obs.Registry, stats func() Stats) {
	names := []string{cacheHitRate}
	for _, g := range statsGauges {
		names = append(names, g.name)
	}
	reg.Gauges(names, func(vals []float64) {
		s := stats()
		vals[0] = s.CacheHitRate
		for i, g := range statsGauges {
			vals[i+1] = float64(*g.field(&s))
		}
	})
}

// StatsFrom reads Stats back off a node's sys.metrics, name to value.
func StatsFrom(metrics map[string]float64) Stats {
	var s Stats
	for _, g := range statsGauges {
		*g.field(&s) = int(metrics[g.name])
	}
	s.CacheHitRate = metrics[cacheHitRate]
	return s
}

// SystemRelations builds, off reg, the system relations stmt reads.
func SystemRelations(reg *obs.Registry, stmt *query.SelectStmt) query.Relations {
	rels := query.Relations{}
	for _, t := range stmt.Sources() {
		if _, built := rels[t.Name]; built || !obs.IsSystem(t.Name) {
			continue
		}
		if cols, rows, ok := reg.Relation(t.Name); ok {
			rels[t.Name] = query.Records(cols, rows)
		}
	}
	return rels
}

// readsSystem reports whether a statement reads a system relation. It
// runs on every plan-cache miss, so it walks the sources in place rather
// than through Sources' copy.
func readsSystem(stmt *query.SelectStmt) bool {
	system := func(t query.TableRef) bool { return !t.Call && obs.IsSystem(t.Name) }
	return system(stmt.From) || slices.ContainsFunc(stmt.Joins, func(j query.JoinClause) bool { return system(j.Table) })
}

// Registry is the node's self-description, which FROM sys.<name> reads.
func (db *DB) Registry() *obs.Registry { return db.reg }

// register fills the engine's part of its registry.
func (db *DB) register() {
	reg := db.reg
	RegisterStats(reg, db.Stats)
	reg.Gauges([]string{"plan_cache.hits", "plan_cache.misses", "plan_cache.size"}, func(vals []float64) {
		p := db.PlanCacheStats()
		copy(vals, []float64{float64(p.Hits), float64(p.Misses), float64(p.Size)})
	})
	reg.Gauges([]string{"wal.frames_total", "wal.bytes_total", "wal.fsyncs_total", "wal.fsync_time_us",
		"wal.commits_waited_total", "wal.commit_wait_us", "wal.segments", "wal.active_segment",
		"wal.checkpoints_total", "wal.ckpt_csn", "wal.ckpt_bytes_reclaimed", "wal.ckpt_ns",
		"store.recover_ns", "wal.durable_csn", "wal.allocated_csn"}, func(vals []float64) {
		w := db.WALStats()
		copy(vals, []float64{float64(w.Frames), float64(w.Bytes), float64(w.Fsyncs), float64(w.FsyncTime.Microseconds()),
			float64(w.Commits), float64(w.CommitWait.Microseconds()), float64(w.Segments), float64(w.SegmentIndex),
			float64(w.Checkpoints), float64(w.CheckpointCSN), float64(w.CheckpointReclaimed), float64(w.CheckpointTime.Nanoseconds()),
			float64(w.RecoveryTime.Nanoseconds()), float64(w.DurableCSN), float64(w.AllocatedCSN)})
	})
	reg.Gauges([]string{"index.count", "index.hits_total"}, func(vals []float64) {
		ixs := db.IndexStats()
		var hits uint64
		for _, st := range ixs {
			hits += st.Hits
		}
		vals[0], vals[1] = float64(len(ixs)), float64(hits)
	})

	reg.Table("sys.tables", []string{"name", "rows"}, func() [][]model.Value {
		var rows [][]model.Value
		for _, name := range db.store.Tables() {
			if t, ok := db.store.Table(name); ok {
				rows = append(rows, []model.Value{model.String(name), model.Int(int64(t.Len()))})
			}
		}
		return rows
	})
	// sys.columns is read off the rows themselves, all tables at one
	// commit stamp: it holds nothing between reads.
	reg.Table("sys.columns", []string{"table", "name", "filled", "kinds"}, func() [][]model.Value {
		csn := db.store.Now()
		var rows [][]model.Value
		for _, name := range db.store.Tables() {
			if t, ok := db.store.Table(name); ok {
				rows = append(rows, columnRows(t, csn)...)
			}
		}
		return rows
	})
	reg.Table("sys.indexes", []string{"table", "attr", "kind", "entries", "hits", "auto"}, func() [][]model.Value {
		var rows [][]model.Value
		for _, ix := range db.IndexStats() {
			rows = append(rows, []model.Value{model.String(ix.Table), model.String(ix.Attr), model.String(ix.Kind),
				model.Int(int64(ix.Entries)), model.Int(int64(ix.Hits)), model.Bool(ix.Auto)})
		}
		return rows
	})
}

// columnRows is one pass over the rows of t visible at csn: a sys.columns
// row per attribute in name order, with its non-null count and its value
// kinds counted as "kind×n", kinds in name order.
func columnRows(t *storage.Table, csn storage.CSN) [][]model.Value {
	type column struct {
		filled int
		kinds  map[string]int
	}
	cols := map[string]*column{}
	t.ScanAt(csn, func(_ storage.RowID, rec model.Record) bool {
		for name, v := range rec {
			c := cols[name]
			if c == nil {
				c = &column{kinds: map[string]int{}}
				cols[name] = c
			}
			if !v.IsNull() {
				c.filled++
			}
			c.kinds[v.Kind().String()]++
		}
		return true
	})
	rows := make([][]model.Value, 0, len(cols))
	for _, name := range slices.Sorted(maps.Keys(cols)) {
		c := cols[name]
		var kinds []string
		for _, k := range slices.Sorted(maps.Keys(c.kinds)) {
			kinds = append(kinds, fmt.Sprintf("%s×%d", k, c.kinds[k]))
		}
		rows = append(rows, []model.Value{model.String(t.Name()), model.String(name), model.Int(int64(c.filled)), textList(kinds)})
	}
	return rows
}
