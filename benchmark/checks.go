package main

// Output correctness. The generator knows every row it made, so the
// expected answer of any generated statement can be computed here, without
// the program: a probe set per read class must render byte-identically to
// this oracle on every topology, which also makes the topologies agree
// with each other. Classes without ORDER BY are compared as sorted lines,
// because the router returns rows in canonical order and an engine in
// storage order.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"scdb"
)

// render flattens a result the way the CLI does.
func render(rows *scdb.Rows, ordered bool) string {
	lines := make([]string, len(rows.Data))
	for i, r := range rows.Data {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = fmt.Sprintf("%v", v)
		}
		lines[i] = strings.Join(cells, "|")
	}
	if !ordered {
		sort.Strings(lines)
	}
	return strings.Join(rows.Columns, "|") + "\n" + strings.Join(lines, "\n")
}

// expect computes the oracle's answer to a generated statement.
func (c *corpus) expect(s stmt) *scdb.Rows {
	switch s.class {
	case classPoint:
		it := c.items[s.lo]
		return &scdb.Rows{Columns: []string{"name", "region", "price", "qty"}, Data: [][]any{{it.name, it.region, it.price, it.qty}}}
	case classRange:
		out := &scdb.Rows{Columns: []string{"_key", "slot", "price"}}
		for _, it := range c.items[s.lo : s.lo+rangeRows] {
			out.Data = append(out.Data, []any{it.key, it.slot, it.price})
		}
		return out
	case classAgg:
		type agg struct {
			n, q   int64
			lo, hi float64
		}
		groups := map[string]*agg{}
		for _, it := range c.items[s.lo : s.lo+c.aggRows()] {
			g := groups[it.region]
			if g == nil {
				g = &agg{lo: it.price, hi: it.price}
				groups[it.region] = g
			}
			g.n++
			g.q += it.qty
			g.lo, g.hi = min(g.lo, it.price), max(g.hi, it.price)
		}
		out := &scdb.Rows{Columns: []string{"region", "n", "q", "lo", "hi"}}
		for region, g := range groups {
			out.Data = append(out.Data, []any{region, g.n, g.q, g.lo, g.hi})
		}
		return out
	case classTopK:
		window := append([]item(nil), c.items[s.lo:s.lo+c.aggRows()]...)
		sort.Slice(window, func(i, j int) bool {
			if window[i].price != window[j].price {
				return window[i].price > window[j].price
			}
			return window[i].key < window[j].key
		})
		out := &scdb.Rows{Columns: []string{"_key", "price"}}
		for _, it := range window[:10] {
			out.Data = append(out.Data, []any{it.key, it.price})
		}
		return out
	default:
		out := &scdb.Rows{Columns: []string{"_key", "name", "region", "price", "qty"}}
		for _, it := range c.items[s.lo : s.lo+c.scanRows()] {
			out.Data = append(out.Data, []any{it.key, it.name, it.region, it.price, it.qty})
		}
		return out
	}
}

const probesPerClass = 3

// checkProbes sends a fixed probe set per class through the topology's
// front door and compares every answer with the oracle.
func checkProbes(rec *record, t *topology, c *corpus, seed int64) {
	q, err := t.reader()
	if err != nil {
		rec.check("probes", false, "%v", err)
		return
	}
	defer t.release(q)
	g := newStmtGen(c, seed, 999, readMix)
	for class := 0; class < numClasses; class++ {
		bad := ""
		for i := 0; i < probesPerClass && bad == ""; i++ {
			s := g.ofClass(class)
			ctx, cancel := context.WithTimeout(context.Background(), readDeadline)
			rows, _, err := q.QueryInfoCtx(ctx, s.text)
			cancel()
			ordered := class == classTopK
			switch {
			case err != nil:
				bad = fmt.Sprintf("%s: %v", s.text, err)
			case render(rows, ordered) != render(c.expect(s), ordered):
				bad = fmt.Sprintf("%s: answer differs from the oracle (%d rows, want %d)", s.text, len(rows.Data), len(c.expect(s).Data))
			}
		}
		rec.check("probe."+classNames[class], bad == "", "%s", bad)
	}
}

// checkBypass holds the bypass predictions a read workload makes: no
// resolver comparison, no merge and, without a router, no scatter.
func checkBypass(rec *record, kind string, before, after counters) {
	cmp := after.stats.ER.Comparisons - before.stats.ER.Comparisons
	merges := after.stats.Merges - before.stats.Merges
	rec.check("bypass.er", cmp == 0 && merges == 0, "%d comparisons and %d merges during a read window", cmp, merges)
	if kind != topoRouter {
		rec.check("bypass.shard", after.sharding.ScatterQueries == 0, "%d scatter queries without a router", after.sharding.ScatterQueries)
	}
}

// checkTables requires every acked row to be present, per table: the
// stream's keys are unique per source, so COUNT(*) must equal the rows the
// harness saw acked.
func checkTables(rec *record, name string, q querier, acked map[string]int) {
	var bad []string
	for _, table := range sortedKeys(acked) {
		ctx, cancel := context.WithTimeout(context.Background(), readDeadline)
		rows, _, err := q.QueryInfoCtx(ctx, "SELECT COUNT(*) AS n FROM "+table)
		cancel()
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("%s: %v", table, err))
		case len(rows.Data) != 1 || rows.Data[0][0] != int64(acked[table]):
			bad = append(bad, fmt.Sprintf("%s: %v rows, %d acked", table, rows.Data, acked[table]))
		}
	}
	rec.check(name, len(bad) == 0, "%s", strings.Join(bad, "; "))
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkDurability takes a crash image of every store directory — a copy
// made while the engine is still open, so nothing Close would write is in
// it, and what the engine holds in user-space buffers is lost as a kill
// would lose it — reopens each image with scdb.Open and requires every
// acked row, per table, summed over the shards. It returns the time the
// reopens took and the bytes the stores hold on disk.
func checkDurability(rec *record, t *topology, imageDir string, acked map[string]int) (recoveryS float64, diskBytes int64) {
	found := map[string]int{}
	for i, dir := range t.dirs {
		image := filepath.Join(imageDir, fmt.Sprintf("image%d", i))
		n, err := copyTree(dir, image)
		if err != nil {
			rec.check("durability", false, "copy %s: %v", dir, err)
			return 0, 0
		}
		diskBytes += n
		start := time.Now()
		db, err := scdb.Open(scdb.Options{Dir: image, Sync: scdb.SyncGroup})
		recoveryS += time.Since(start).Seconds()
		if err != nil {
			rec.check("durability", false, "reopen the crash image of %s: %v", dir, err)
			return 0, 0
		}
		for table := range acked {
			rows, err := db.Query("SELECT COUNT(*) AS n FROM " + table)
			if err == nil && len(rows.Data) == 1 {
				n, _ := rows.Data[0][0].(int64)
				found[table] += int(n)
			}
		}
		db.Close()
		os.RemoveAll(image)
	}
	var bad []string
	for _, table := range sortedKeys(acked) {
		if found[table] != acked[table] {
			bad = append(bad, fmt.Sprintf("%s: %d of %d acked rows after restart", table, found[table], acked[table]))
		}
	}
	rec.check("durability", len(bad) == 0, "%s", strings.Join(bad, "; "))
	return recoveryS, diskBytes
}

// copyTree copies the regular files under src to dst and returns their
// total size.
func copyTree(src, dst string) (int64, error) {
	var total int64
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		n, err := io.Copy(out, in)
		total += n
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		return err
	})
	return total, err
}
