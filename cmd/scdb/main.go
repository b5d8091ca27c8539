// Command scdb is the interactive shell and batch runner for the
// self-curating database.
//
// Usage:
//
//	scdb [flags] [query...]
//
//	-connect ADDR   talk to a running scdb-server instead of embedding
//	-dir DIR        open a durable database at DIR (default: in-memory)
//	-load NAME      load a sample corpus: lifesci | clinical | stream
//	-q QUERY        run one SCQL query and exit (repeatable via args);
//	                the first statement that fails ends the run with status 1
//	-explain QUERY  print the optimized plan and rewrites, then exit
//	-analyze QUERY  run the query under EXPLAIN ANALYZE: per-operator statistics
//	-parallelism N  executor worker-pool size (0 = one per CPU)
//	-stats          print engine statistics after loading
//
// With no -q/-explain/-analyze, scdb reads SCQL statements from stdin,
// one per line (lines starting with \ are shell commands: \stats,
// \witnesses, \sources, \indexes, \analyze Q, \trace Q, \quit). EXPLAIN,
// EXPLAIN ANALYZE, and TRACE also work as ordinary statement prefixes.
// Against a server (-connect), \metrics dumps the metrics registry and
// \slow prints the slow-op log.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"scdb"
	"scdb/client"
)

// engine is the query surface shared by the embedded DB and the network
// client, so the shell renders both the same way.
type engine interface {
	QueryInfo(q string) (*scdb.Rows, *scdb.QueryInfo, error)
	Explain(q string) (*scdb.QueryInfo, error)
}

func main() {
	connect := flag.String("connect", "", "scdb-server address (host:port); skips embedding a database")
	dir := flag.String("dir", "", "storage directory (empty = in-memory)")
	load := flag.String("load", "", "sample corpus to load: lifesci | clinical | stream")
	q := flag.String("q", "", "run one query and exit")
	explain := flag.String("explain", "", "explain one query and exit")
	analyze := flag.String("analyze", "", "execute one query, print per-operator stats, and exit")
	parallelism := flag.Int("parallelism", 0, "executor worker-pool size (0 = one per CPU)")
	stats := flag.Bool("stats", false, "print engine statistics after loading")
	flag.Parse()

	if *connect != "" {
		runRemote(*connect, *q, *explain, *analyze, flag.Args())
		return
	}

	db, err := scdb.OpenSample(*load, scdb.Options{Dir: *dir, Parallelism: *parallelism})
	if err != nil {
		fatalf("open: %v", err)
	}
	defer db.Close()

	if *stats {
		printStats(db)
	}
	if *explain != "" {
		info, err := db.Explain(*explain)
		if err != nil {
			fatalf("explain: %v", err)
		}
		fmt.Print(info.Plan)
		for _, r := range info.Rules {
			fmt.Println("rewrite:", r)
		}
		fmt.Printf("estimated cost: %.0f\n", info.EstimatedCost)
		return
	}
	if *analyze != "" {
		if !runAnalyze(db, *analyze) {
			os.Exit(1)
		}
		return
	}
	if ran, ok := oneShot(db, *q, flag.Args()); ran {
		if !ok {
			os.Exit(1)
		}
		return
	}

	// Interactive / stdin batch mode.
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if isTTY() {
		fmt.Println(`scdb shell — SCQL statements, or \stats \witnesses \sources \conflicts \indexes \schema T \explain Q \analyze Q \trace Q \tables \quit`)
		fmt.Print("scdb> ")
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return
		case line == `\stats`:
			printStats(db)
		case line == `\witnesses`:
			for _, w := range db.Witnesses() {
				fmt.Printf("%s must have %s to some %s (via %s)\n", w.Entity, w.Role, w.Filler, w.Because)
			}
		case line == `\sources`:
			rich := db.RefreshRichness()
			for _, src := range sortedKeys(rich) {
				fmt.Printf("%-16s richness %.3f\n", src, rich[src])
			}
		case line == `\conflicts`:
			for _, c := range db.Conflicts() {
				kind := "contradiction"
				if c.Reconcilable {
					kind = "parallel worlds"
				}
				fmt.Printf("%s.%s (%s):\n", c.Entity, c.Attr, kind)
				for _, v := range sortedKeys(c.Values) {
					fmt.Printf("  %-14s from %s\n", v, strings.Join(c.Values[v], ", "))
				}
			}
		case line == `\indexes`:
			idx := db.IndexStats()
			if len(idx) == 0 {
				fmt.Println("(no indexes — they are created automatically from observed access patterns)")
				break
			}
			fmt.Printf("%-20s %-16s %-7s %8s %6s %s\n", "table", "attribute", "kind", "entries", "hits", "origin")
			for _, s := range idx {
				origin := "pinned"
				if s.Auto {
					origin = "auto"
				}
				fmt.Printf("%-20s %-16s %-7s %8d %6d %s\n", s.Table, s.Attr, s.Kind, s.Entries, s.Hits, origin)
			}
			pc := db.PlanCacheStats()
			fmt.Printf("plan cache: %d plans, %d hits, %d misses\n", pc.Size, pc.Hits, pc.Misses)
		case line == `\tables`:
			for _, name := range db.Tables() {
				fmt.Println(name)
			}
		case strings.HasPrefix(line, `\schema `):
			table := strings.TrimSpace(strings.TrimPrefix(line, `\schema `))
			for _, a := range db.Schema(table) {
				kinds := make([]string, 0, len(a.Kinds))
				for _, k := range sortedKeys(a.Kinds) {
					kinds = append(kinds, fmt.Sprintf("%s×%d", k, a.Kinds[k]))
				}
				fmt.Printf("%-16s filled %-5d %s\n", a.Name, a.Filled, strings.Join(kinds, " "))
			}
		case strings.HasPrefix(line, `\explain `):
			q := strings.TrimSpace(strings.TrimPrefix(line, `\explain `))
			info, err := db.Explain(q)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				break
			}
			fmt.Print(info.Plan)
			for _, r := range info.Rules {
				fmt.Println("rewrite:", r)
			}
			fmt.Printf("estimated cost: %.0f\n", info.EstimatedCost)
		case strings.HasPrefix(line, `\analyze `):
			runAnalyze(db, strings.TrimSpace(strings.TrimPrefix(line, `\analyze `)))
		case strings.HasPrefix(line, `\trace `):
			runTrace(db, strings.TrimSpace(strings.TrimPrefix(line, `\trace `)))
		case strings.HasPrefix(line, `\`):
			fmt.Fprintf(os.Stderr, "unknown command %s\n", line)
		default:
			runQuery(db, line)
		}
		if isTTY() {
			fmt.Print("scdb> ")
		}
	}
}

// runRemote is the shell against a running scdb-server: the same query
// rendering, with server-side statistics behind \stats. Curation
// introspection commands need the embedded engine and are not offered.
func runRemote(addr, q, explain, analyze string, args []string) {
	c, err := client.Dial(addr)
	if err != nil {
		fatalf("connect %s: %v", addr, err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		fatalf("ping %s: %v", addr, err)
	}
	if explain != "" {
		printExplain(c, explain)
		return
	}
	if analyze != "" {
		if !runAnalyze(c, analyze) {
			os.Exit(1)
		}
		return
	}
	if ran, ok := oneShot(c, q, args); ran {
		if !ok {
			os.Exit(1)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if isTTY() {
		fmt.Printf(`scdb shell (remote %s) — SCQL statements, or \stats \replicas \metrics \slow \explain Q \analyze Q \trace Q \quit`+"\n", addr)
		fmt.Print("scdb> ")
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return
		case line == `\stats`:
			printServerStats(c)
		case line == `\replicas`:
			printReplicas(c)
		case line == `\metrics`:
			dump, err := c.Metrics()
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				break
			}
			fmt.Print(dump)
		case line == `\slow`:
			printSlowLog(c)
		case strings.HasPrefix(line, `\explain `):
			printExplain(c, strings.TrimSpace(strings.TrimPrefix(line, `\explain `)))
		case strings.HasPrefix(line, `\analyze `):
			runAnalyze(c, strings.TrimSpace(strings.TrimPrefix(line, `\analyze `)))
		case strings.HasPrefix(line, `\trace `):
			runTrace(c, strings.TrimSpace(strings.TrimPrefix(line, `\trace `)))
		case strings.HasPrefix(line, `\`):
			fmt.Fprintf(os.Stderr, "unknown or embedded-only command %s\n", line)
		default:
			runQuery(c, line)
		}
		if isTTY() {
			fmt.Print("scdb> ")
		}
	}
}

func printServerStats(c *client.Client) {
	st, err := c.Stats()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	e := st.Engine
	fmt.Printf("tables=%d entities=%d edges=%d concepts=%d inferred=%d witnesses=%d inconsistencies=%d merges=%d cache-hit=%.0f%%\n",
		e.Tables, e.Entities, e.Edges, e.Concepts, e.InferredTypes,
		e.Witnesses, e.Inconsistencies, e.Merges, 100*e.CacheHitRate)
	printCurationLine(e.ER)
	s := st.Server
	fmt.Printf("server: conns=%d in-flight=%d (peak %d) queued=%d rejected=%d canceled=%d\n",
		s.Conns, s.InFlight, s.InFlightPeak, s.Queued, s.Rejected, s.Canceled)
	if s.SlowOps > 0 {
		fmt.Printf("slow ops: %d (see \\slow)\n", s.SlowOps)
	}
	for _, op := range sortedKeys(s.Ops) {
		m := s.Ops[op]
		fmt.Printf("  %-8s n=%-6d err=%-4d mean=%.0fµs p50≤%dµs p95≤%dµs p99≤%dµs max=%dµs\n",
			op, m.Count, m.Errors, m.MeanUS, m.P50US, m.P95US, m.P99US, m.MaxUS)
	}
	if ing := s.Ingest; ing.Batches > 0 {
		fmt.Printf("ingest: batches=%d rows=%d batch-size mean=%.0f p50≤%d p95≤%d max=%d rows/s mean=%.0f p50≤%d p95≤%d max=%d\n",
			ing.Batches, ing.Rows, ing.MeanBatch, ing.P50Batch, ing.P95Batch, ing.MaxBatch,
			ing.MeanRowsPS, ing.P50RowsPS, ing.P95RowsPS, ing.MaxRowsPS)
	}
	pc := st.PlanCache
	fmt.Printf("plan cache: %d plans, %d hits, %d misses\n", pc.Size, pc.Hits, pc.Misses)
	if r := st.Repl; r != nil {
		if r.Role == "replica" {
			fmt.Printf("repl: replica applied-csn=%d lag-csn=%d lag-seconds=%.1f\n",
				r.AppliedCSN, r.LagCSN, r.LagSeconds)
		} else {
			fmt.Printf("repl: primary durable-csn=%d allocated-csn=%d followers=%d lag-csn=%d\n",
				r.DurableCSN, r.AllocatedCSN, len(r.Followers), r.LagCSN)
		}
	}
	if sh := st.Sharding; sh != nil {
		fmt.Printf("sharding: shards=%d scatter-queries=%d partial-rows=%d routed-rows=%d exchange-rounds=%d digests=%d cross-comparisons=%d cross-merges=%d\n",
			sh.Shards, sh.ScatterQueries, sh.PartialRows, sh.RoutedRows,
			sh.ExchangeRounds, sh.Digests, sh.CrossComparisons, sh.CrossMerges)
		for i, n := range sh.Nodes {
			fmt.Printf("  shard %-2d %-24s csn=%-8d entities=%d\n", i, n.Addr, n.LastCSN, n.Entities)
		}
	}
}

// printReplicas renders the replication topology as the queried node sees
// it: a primary lists its subscribed followers with per-follower lag; a
// replica reports its own applied watermark.
func printReplicas(c *client.Client) {
	st, err := c.Stats()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	r := st.Repl
	if r == nil {
		fmt.Println("replication: not active (standalone primary, no followers subscribed)")
		return
	}
	if r.Role == "replica" {
		fmt.Printf("role=replica applied-csn=%d primary-csn=%d lag-csn=%d lag-seconds=%.1f\n",
			r.AppliedCSN, r.AllocatedCSN, r.LagCSN, r.LagSeconds)
		return
	}
	fmt.Printf("role=primary durable-csn=%d allocated-csn=%d followers=%d\n",
		r.DurableCSN, r.AllocatedCSN, len(r.Followers))
	for _, f := range r.Followers {
		fmt.Printf("  %-21s sent-csn=%-8d ack-csn=%-8d lag-csn=%-6d lag-bytes=%d\n",
			f.Remote, f.SentCSN, f.AckCSN, f.LagCSN, f.LagBytes)
	}
}

func printSlowLog(c *client.Client) {
	reply, err := c.SlowLog()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	fmt.Printf("threshold=%dµs total=%d retained=%d\n",
		reply.ThresholdUS, reply.Total, len(reply.Entries))
	for _, e := range reply.Entries {
		line := fmt.Sprintf("%s %dµs %s", e.Start, e.DurUS, e.Op)
		if e.Detail != "" {
			line += " " + e.Detail
		}
		if e.Err != "" {
			line += " err=" + e.Err
		}
		fmt.Println(line)
	}
}

// runTrace executes q with tracing on and prints the span tree the way the
// server rendered it (one JSON object per row).
func runTrace(db engine, q string) {
	rows, _, err := db.QueryInfo("TRACE " + q)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	for _, r := range rows.Data {
		for _, v := range r {
			fmt.Println(v)
		}
	}
}

// sortedKeys keeps map-backed shell output deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printExplain(db engine, q string) {
	info, err := db.Explain(q)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	fmt.Print(info.Plan)
	for _, r := range info.Rules {
		fmt.Println("rewrite:", r)
	}
	fmt.Printf("estimated cost: %.0f\n", info.EstimatedCost)
}

// oneShot runs the -q statement and then the positional ones, stopping at
// the first that fails. ran reports whether there was a statement at all
// (without one the caller starts the shell); ok whether all of them
// succeeded, which the caller turns into the exit status.
func oneShot(db engine, q string, args []string) (ran, ok bool) {
	if q != "" {
		args = append([]string{q}, args...)
	}
	for _, stmt := range args {
		if !runQuery(db, stmt) {
			return true, false
		}
	}
	return len(args) > 0, true
}

// runQuery executes q and prints its result as a table; it reports whether
// the statement succeeded.
func runQuery(db engine, q string) bool {
	rows, info, err := db.QueryInfo(q)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return false
	}
	widths := make([]int, len(rows.Columns))
	cells := func(row []any) []string {
		out := make([]string, len(row))
		for i, v := range row {
			out[i] = fmt.Sprintf("%v", v)
		}
		return out
	}
	for i, c := range rows.Columns {
		widths[i] = len(c)
	}
	var all [][]string
	for _, r := range rows.Data {
		cs := cells(r)
		for i, c := range cs {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
		all = append(all, cs)
	}
	printRow := func(cs []string) {
		for i, c := range cs {
			if i > 0 {
				fmt.Print("  ")
			}
			fmt.Printf("%-*s", widths[i], c)
		}
		fmt.Println()
	}
	printRow(rows.Columns)
	for i := range rows.Columns {
		if i > 0 {
			fmt.Print("  ")
		}
		fmt.Print(strings.Repeat("-", widths[i]))
	}
	fmt.Println()
	for _, cs := range all {
		printRow(cs)
	}
	cached := ""
	if info.CacheHit {
		cached = " (materialized)"
	}
	fmt.Printf("(%d rows)%s\n", len(rows.Data), cached)
	return true
}

// runAnalyze executes q under EXPLAIN ANALYZE and prints its per-operator
// runtime profile, then the statement's row count: the root operator's out=
// counter.
func runAnalyze(db engine, q string) bool {
	rows, _, err := db.QueryInfo("EXPLAIN ANALYZE " + q)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return false
	}
	n := "?"
	for i, r := range rows.Data {
		line := fmt.Sprint(r...)
		fmt.Println(line)
		if _, rest, ok := strings.Cut(line, " out="); ok && i == 0 {
			n, _, _ = strings.Cut(rest, " ")
		}
	}
	fmt.Printf("(%s rows)\n", n)
	return true
}

func printCurationLine(er scdb.ERStats) {
	if er.Comparisons == 0 && er.Candidates == 0 && er.Blocks == 0 {
		return
	}
	fmt.Printf("curation: comparisons=%d candidates=%d ann-probes=%d blocks=%d oversized-skips=%d\n",
		er.Comparisons, er.Candidates, er.ANNProbes, er.Blocks, er.BlockSkips)
}

func printStats(db *scdb.DB) {
	st := db.Stats()
	fmt.Printf("tables=%d entities=%d edges=%d concepts=%d inferred=%d witnesses=%d inconsistencies=%d merges=%d cache-hit=%.0f%%\n",
		st.Tables, st.Entities, st.Edges, st.Concepts, st.InferredTypes,
		st.Witnesses, st.Inconsistencies, st.Merges, 100*st.CacheHitRate)
	printCurationLine(st.ER)
	if w := db.WALStats(); w.Segments > 0 {
		fmt.Printf("wal: segments=%d active=%d bytes=%d checkpoints=%d ckpt-csn=%d reclaimed=%d durable-csn=%d allocated-csn=%d recovery=%s\n",
			w.Segments, w.SegmentIndex, w.Bytes, w.Checkpoints, w.CheckpointCSN,
			w.CheckpointReclaimed, w.DurableCSN, w.AllocatedCSN,
			w.RecoveryTime.Round(time.Microsecond))
	}
}

func isTTY() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scdb: "+format+"\n", args...)
	os.Exit(1)
}
