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
// With no -q/-explain/-analyze, scdb reads SCQL statements from stdin, one
// per line; EXPLAIN, EXPLAIN ANALYZE and TRACE work as statement prefixes.
// The curation statements INSERT INTO claims (…) VALUES (…), ADD AXIOMS
// '…' and REFRESH RICHNESS tell the database what a curator knows, in
// both modes. The engine's answers are relation-valued functions called in
// FROM or JOIN with literal arguments, in both modes: witnesses(),
// inconsistencies(), conflicts(), resolve(entity, attr, policy),
// justify(entity, attr, target, tol), discover(entity, steps, seed),
// crowd(entity, attr, budget, accuracy, seed), suggest_links(entity,
// predicate, k), richness() and worlds(entity, attr). A line starting
// with \ is a shell command. In both modes:
//
//	\witnesses   the inferred existentials (SELECT … FROM witnesses())
//	\conflicts   the disagreeing claims (SELECT … FROM conflicts())
//	\sources     each source's measured richness (SELECT … FROM richness())
//	\explain Q   the optimized plan, its rewrites and cost (EXPLAIN Q)
//	\analyze Q   per-operator statistics and the row count (EXPLAIN ANALYZE Q)
//	\trace Q     the statement's span tree (TRACE Q)
//	\quit        leave the shell (also \q)
//
// Embedded, the shell also has \stats, \indexes, \tables and \schema T.
// Against a server (-connect) it has \stats (engine and server counters),
// \replicas, \metrics (the metrics registry) and \slow (the slow-op log).
// Through a router the first three are refused as not routable.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"scdb"
	"scdb/client"
)

// engine is the query surface shared by the embedded DB and the network
// client, so one shell serves both.
type engine interface {
	QueryInfo(q string) (*scdb.Rows, *scdb.QueryInfo, error)
}

// command is one backslash command: its name, the argument it takes ("" for
// none; the banner shows it) and what it runs.
type command struct {
	name, arg string
	run       func(arg string)
}

var (
	connect     = flag.String("connect", "", "scdb-server address (host:port); skips embedding a database")
	dir         = flag.String("dir", "", "storage directory (empty = in-memory)")
	load        = flag.String("load", "", "sample corpus to load: lifesci | clinical | stream")
	query       = flag.String("q", "", "run one query and exit")
	explain     = flag.String("explain", "", "explain one query and exit")
	analyze     = flag.String("analyze", "", "execute one query, print per-operator stats, and exit")
	parallelism = flag.Int("parallelism", 0, "executor worker-pool size (0 = one per CPU)")
	stats       = flag.Bool("stats", false, "print engine statistics after loading")
)

func main() {
	flag.Parse()
	os.Exit(run())
}

// run opens the mode's engine, answers the flags or runs the shell, and
// returns the exit status once the engine is closed.
func run() int {
	var db engine
	var cmds []command
	title := "scdb shell"
	if *connect != "" {
		c, err := client.Dial(*connect)
		if err != nil {
			fatalf("connect %s: %v", *connect, err)
		}
		defer c.Close()
		if err := c.Ping(); err != nil {
			fatalf("ping %s: %v", *connect, err)
		}
		db, cmds, title = c, remoteCommands(c), fmt.Sprintf("scdb shell (remote %s)", *connect)
	} else {
		edb, err := scdb.OpenSample(*load, scdb.Options{Dir: *dir, Parallelism: *parallelism})
		if err != nil {
			fatalf("open: %v", err)
		}
		defer edb.Close()
		if *stats {
			printStats(edb)
		}
		db, cmds = edb, embeddedCommands(edb)
	}

	ok := true
	switch {
	case *explain != "":
		ok = printExplain(db, *explain)
	case *analyze != "":
		ok = runAnalyze(db, *analyze)
	default:
		var ran bool
		if ran, ok = oneShot(db, *query, flag.Args()); !ran {
			shell(os.Stdin, db, title, cmds, isTTY())
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// shell reads statements and commands from in, one per line, until \quit
// or the end of input. cmds are the mode's own commands; the loop adds the
// shared ones. With prompt set it prints the banner and a prompt per line.
func shell(in io.Reader, db engine, title string, cmds []command, prompt bool) {
	cmds = append(cmds, sharedCommands(db)...)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if prompt {
		fmt.Println(banner(title, cmds))
		fmt.Print("scdb> ")
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == `\quit` || line == `\q`:
			return
		case strings.HasPrefix(line, `\`):
			runCommand(cmds, line)
		case line != "":
			runQuery(db, line)
		}
		if prompt {
			fmt.Print("scdb> ")
		}
	}
}

// runCommand runs the command line names, if it takes the argument given
// (or none when it takes none).
func runCommand(cmds []command, line string) {
	name, arg, _ := strings.Cut(line, " ")
	arg = strings.TrimSpace(arg)
	for _, c := range cmds {
		if c.name == name && (c.arg == "") == (arg == "") {
			c.run(arg)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown command %s\n", line)
}

// banner lists the shell's commands, so it says what the table holds.
func banner(title string, cmds []command) string {
	var b strings.Builder
	b.WriteString(title + " — SCQL statements, or")
	for _, c := range cmds {
		b.WriteString(" " + c.name)
		if c.arg != "" {
			b.WriteString(" " + c.arg)
		}
	}
	b.WriteString(` \quit`)
	return b.String()
}

// sharedCommands are the same statements on every surface: each runs
// through the engine as SCQL.
func sharedCommands(db engine) []command {
	fixed := func(q string) func(string) { return func(string) { runQuery(db, q) } }
	return []command{
		{`\witnesses`, "", fixed("SELECT entity, role, filler, because FROM witnesses()")},
		{`\conflicts`, "", fixed("SELECT entity, attr, value, sources, reconcilable FROM conflicts()")},
		{`\sources`, "", fixed("SELECT source, score FROM richness() ORDER BY source")},
		{`\explain`, "Q", func(q string) { printExplain(db, q) }},
		{`\analyze`, "Q", func(q string) { runAnalyze(db, q) }},
		{`\trace`, "Q", func(q string) { runTrace(db, q) }},
	}
}

// embeddedCommands introspect the storage and plan state of an embedded
// database.
func embeddedCommands(db *scdb.DB) []command {
	return []command{
		{`\stats`, "", func(string) { printStats(db) }},
		{`\indexes`, "", func(string) { printIndexes(db) }},
		{`\tables`, "", func(string) {
			for _, name := range db.Tables() {
				fmt.Println(name)
			}
		}},
		{`\schema`, "T", func(table string) {
			for _, a := range db.Schema(table) {
				kinds := make([]string, 0, len(a.Kinds))
				for _, k := range sortedKeys(a.Kinds) {
					kinds = append(kinds, fmt.Sprintf("%s×%d", k, a.Kinds[k]))
				}
				fmt.Printf("%-16s filled %-5d %s\n", a.Name, a.Filled, strings.Join(kinds, " "))
			}
		}},
	}
}

// remoteCommands read a server's counters.
func remoteCommands(c *client.Client) []command {
	return []command{
		{`\stats`, "", func(string) { printServerStats(c) }},
		{`\replicas`, "", func(string) { printReplicas(c) }},
		{`\metrics`, "", func(string) {
			dump, err := c.Metrics()
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			fmt.Print(dump)
		}},
		{`\slow`, "", func(string) { printSlowLog(c) }},
	}
}

func printIndexes(db *scdb.DB) {
	idx := db.IndexStats()
	if len(idx) == 0 {
		fmt.Println("(no indexes — they are created automatically from observed access patterns)")
		return
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
}

func printServerStats(c *client.Client) {
	st, err := c.Stats()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	printEngine(st.Engine)
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

// printExplain prints q's EXPLAIN answer: the plan, the rewrites and the
// estimated cost. It reports whether the statement could be explained.
func printExplain(db engine, q string) bool {
	_, info, err := db.QueryInfo("EXPLAIN " + q)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return false
	}
	fmt.Print(info.Plan)
	for _, r := range info.Rules {
		fmt.Println("rewrite:", r)
	}
	fmt.Printf("estimated cost: %.0f\n", info.EstimatedCost)
	return true
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

// printEngine prints an engine's counters, embedded or a server's.
func printEngine(st scdb.Stats) {
	fmt.Printf("tables=%d entities=%d edges=%d concepts=%d inferred=%d witnesses=%d inconsistencies=%d merges=%d cache-hit=%.0f%%\n",
		st.Tables, st.Entities, st.Edges, st.Concepts, st.InferredTypes,
		st.Witnesses, st.Inconsistencies, st.Merges, 100*st.CacheHitRate)
	if er := st.ER; er.Comparisons != 0 || er.Candidates != 0 || er.Blocks != 0 {
		fmt.Printf("curation: comparisons=%d candidates=%d ann-probes=%d blocks=%d oversized-skips=%d\n",
			er.Comparisons, er.Candidates, er.ANNProbes, er.Blocks, er.BlockSkips)
	}
}

func printStats(db *scdb.DB) {
	printEngine(db.Stats())
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
