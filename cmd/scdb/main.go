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
// predicate, k), richness() and worlds(entity, attr). The database
// describes itself in the system relations FROM sys.metrics, sys.tables,
// sys.columns, sys.indexes, sys.slowlog, sys.replicas and, on a router,
// sys.shards; each describes the node that answers it. A line starting
// with \ is a shell command, one fixed statement on every surface:
//
//	\stats       every instrument of the node (SELECT … FROM sys.metrics)
//	\tables      the tables and their row counts (SELECT … FROM sys.tables)
//	\schema T    T's schema, read from its rows (SELECT … FROM sys.columns)
//	\indexes     the self-curated indexes (SELECT … FROM sys.indexes)
//	\replicas    the followers of a primary (SELECT … FROM sys.replicas)
//	\slow        the slow-op log (SELECT … FROM sys.slowlog)
//	\witnesses   the inferred existentials (SELECT … FROM witnesses())
//	\conflicts   the disagreeing claims (SELECT … FROM conflicts())
//	\sources     each source's measured richness (SELECT … FROM richness())
//	\explain Q   the optimized plan, its rewrites and cost (EXPLAIN Q)
//	\analyze Q   per-operator statistics and the row count (EXPLAIN ANALYZE Q)
//	\trace Q     the statement's span tree (TRACE Q)
//	\quit        leave the shell (also \q)
//
// A relation a node does not hold is an unknown source: a router has no
// sys.tables, and only a server has sys.slowlog and sys.replicas.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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
)

func main() {
	flag.Parse()
	os.Exit(run())
}

// run opens the mode's engine, answers the flags or runs the shell, and
// returns the exit status once the engine is closed.
func run() int {
	var db engine
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
		db, title = c, fmt.Sprintf("scdb shell (remote %s)", *connect)
	} else {
		edb, err := scdb.OpenSample(*load, scdb.Options{Dir: *dir, Parallelism: *parallelism})
		if err != nil {
			fatalf("open: %v", err)
		}
		defer edb.Close()
		db = edb
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
			shell(os.Stdin, db, title, isTTY())
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// shell reads statements and commands from in, one per line, until \quit
// or the end of input. With prompt set it prints the banner and a prompt
// per line.
func shell(in io.Reader, db engine, title string, prompt bool) {
	cmds := commands(db)
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

// commands is the shell's one command table: each runs one statement
// through the engine, so it means the same embedded, over the wire and
// through a router.
func commands(db engine) []command {
	fixed := func(q string) func(string) { return func(string) { runQuery(db, q) } }
	return []command{
		{`\stats`, "", fixed("SELECT name, value FROM sys.metrics ORDER BY name")},
		{`\tables`, "", fixed("SELECT name, rows FROM sys.tables ORDER BY name")},
		{`\schema`, "T", func(table string) {
			runQuery(db, `SELECT name, filled, kinds FROM sys.columns WHERE "table" = '`+
				strings.ReplaceAll(table, "'", "''")+`' ORDER BY name`)
		}},
		{`\indexes`, "", fixed(`SELECT "table", attr, entries, hits, auto FROM sys.indexes`)},
		{`\replicas`, "", fixed("SELECT remote, sent_csn, ack_csn, lag_csn, lag_bytes FROM sys.replicas ORDER BY remote")},
		{`\slow`, "", fixed("SELECT start, dur_us, op, detail, err FROM sys.slowlog")},
		{`\witnesses`, "", fixed("SELECT entity, role, filler, because FROM witnesses()")},
		{`\conflicts`, "", fixed("SELECT entity, attr, value, sources, reconcilable FROM conflicts()")},
		{`\sources`, "", fixed("SELECT source, score FROM richness() ORDER BY source")},
		{`\explain`, "Q", func(q string) { printExplain(db, q) }},
		{`\analyze`, "Q", func(q string) { runAnalyze(db, q) }},
		{`\trace`, "Q", func(q string) { runTrace(db, q) }},
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

func isTTY() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scdb: "+format+"\n", args...)
	os.Exit(1)
}
