package server_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"scdb"
	"scdb/internal/server"
)

// traceSpan mirrors the JSON tree a TRACE statement answers with;
// attribute assertions go against the raw text.
type traceSpan struct {
	Span     string      `json:"span"`
	StartUS  *int64      `json:"start_us"`
	DurUS    *int64      `json:"dur_us"`
	Children []traceSpan `json:"children"`
}

// parseTrace reassembles the one-line-per-row trace result and decodes it.
func parseTrace(t *testing.T, rows *scdb.Rows) (traceSpan, string) {
	t.Helper()
	if len(rows.Columns) != 1 || rows.Columns[0] != "trace" {
		t.Fatalf("trace result columns = %v, want [trace]", rows.Columns)
	}
	var b strings.Builder
	for _, r := range rows.Data {
		if len(r) != 1 {
			t.Fatalf("trace row has %d cells", len(r))
		}
		s, ok := r[0].(string)
		if !ok {
			t.Fatalf("trace cell is %T, want string", r[0])
		}
		b.WriteString(s)
		b.WriteByte('\n')
	}
	text := b.String()
	var root traceSpan
	if err := json.Unmarshal([]byte(text), &root); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, text)
	}
	return root, text
}

// findSpan walks the tree for the first span with the given name.
func findSpan(s traceSpan, name string) *traceSpan {
	if s.Span == name {
		return &s
	}
	for _, c := range s.Children {
		if got := findSpan(c, name); got != nil {
			return got
		}
	}
	return nil
}

func countOpSpans(s traceSpan) int {
	n := 0
	if strings.HasPrefix(s.Span, "op:") {
		n++
	}
	for _, c := range s.Children {
		n += countOpSpans(c)
	}
	return n
}

// TestTraceQueryOverWire runs a TRACE statement through the full network
// path and checks the span tree covers the request lifecycle: frame
// decode, admission wait, planning, and at least two executor operators
// with timings and row counts.
func TestTraceQueryOverWire(t *testing.T) {
	db := openBig(t, 64)
	_, addr := startServer(t, db, nil)
	c := dial(t, addr)

	rows, err := c.Query("TRACE SELECT b.x FROM big AS b WHERE b.x > 3")
	if err != nil {
		t.Fatal(err)
	}
	root, text := parseTrace(t, rows)
	if root.Span != "request" {
		t.Fatalf("root span = %q, want request", root.Span)
	}
	for _, name := range []string{"frame_decode", "admission_wait", "plan", "execute"} {
		s := findSpan(root, name)
		if s == nil {
			t.Fatalf("trace missing span %q:\n%s", name, text)
		}
		if s.DurUS == nil {
			t.Fatalf("span %q has no duration:\n%s", name, text)
		}
	}
	if n := countOpSpans(root); n < 2 {
		t.Fatalf("trace has %d executor operator spans, want >= 2:\n%s", n, text)
	}
	// The execute span reports how many rows the statement produced, and
	// every operator span carries its own row counters.
	if !strings.Contains(text, `"rows_out": 60`) {
		t.Fatalf("trace missing rows_out=60 (64 rows, x > 3):\n%s", text)
	}
	if !strings.Contains(text, `"rows_in"`) {
		t.Fatalf("operator spans missing rows_in counters:\n%s", text)
	}

	// A repeated TRACE reuses the cached plan and says so.
	rows, err = c.Query("TRACE SELECT b.x FROM big AS b WHERE b.x > 3")
	if err != nil {
		t.Fatal(err)
	}
	_, text = parseTrace(t, rows)
	if !strings.Contains(text, `"plan_cached": true`) {
		t.Fatalf("second trace not plan-cached:\n%s", text)
	}
}

// TestTraceDoesNotDisturbResults checks a TRACE statement leaves the
// materialization path alone: the same statement still answers with its
// ordinary rows afterwards.
func TestTraceDoesNotDisturbResults(t *testing.T) {
	db := openBig(t, 16)
	_, addr := startServer(t, db, nil)
	c := dial(t, addr)

	if _, err := c.Query("TRACE SELECT COUNT(*) AS n FROM big AS b"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query("SELECT COUNT(*) AS n FROM big AS b")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0] != int64(16) {
		t.Fatalf("count after trace = %v, want 16", rows.Data)
	}
}

// TestTracedIngestOverWire opts an ingest request into tracing and checks
// the response carries the curation pipeline's stage spans.
func TestTracedIngestOverWire(t *testing.T) {
	db := openDB(t, scdb.Options{Axioms: "concept Device"})
	_, addr := startServer(t, db, nil)
	c := dial(t, addr)

	trace, err := c.IngestTraced(streamSource(40))
	if err != nil {
		t.Fatal(err)
	}
	if trace == "" {
		t.Fatal("traced ingest returned no trace")
	}
	var root traceSpan
	if err := json.Unmarshal([]byte(trace), &root); err != nil {
		t.Fatalf("ingest trace is not valid JSON: %v\n%s", err, trace)
	}
	// The pipeline's stage spans join the server's request root (frame
	// decode and admission wait sit alongside them).
	for _, name := range []string{"admission_wait", "ingest.decode", "ingest.install",
		"ingest.relate", "ingest.integrate", "ingest.infer"} {
		if findSpan(root, name) == nil {
			t.Fatalf("ingest trace missing span %q:\n%s", name, trace)
		}
	}
	if !strings.Contains(trace, `"records": 40`) {
		t.Fatalf("decode span missing record count:\n%s", trace)
	}

	// An untraced ingest answers without a trace body.
	if err := c.Ingest(streamSource(1)); err != nil {
		t.Fatal(err)
	}
}

// TestSysMetricsOverWire reads the node's one registry as sys.metrics over
// the wire: server, engine and WAL instruments in one name-ordered
// relation, where a read counts itself as a query in flight.
func TestSysMetricsOverWire(t *testing.T) {
	db := openBig(t, 8)
	_, addr := startServer(t, db, nil)
	c := dial(t, addr)

	if _, err := c.Query("SELECT COUNT(*) AS n FROM big AS b"); err != nil {
		t.Fatal(err)
	}
	// The server records the query's latency after writing the result
	// frame, so a read pipelined right behind the answer can run first:
	// poll until it has landed.
	var rows *scdb.Rows
	waitUntil(t, 4*time.Second, func() bool {
		var err error
		if rows, err = c.Query("SELECT name, value FROM sys.metrics"); err != nil {
			t.Fatal(err)
		}
		return strings.Contains(render(rows), "server.op.query.latency_us_count|")
	}, "the query's latency count to reach sys.metrics")
	dump := render(rows)
	for _, name := range []string{
		"server.conns_open|1\n",
		"admission.in_flight|1\n", // the read itself
		"plan_cache.size|",
		"engine.tables|",
		"wal.frames_total|0\n",
	} {
		if !strings.Contains(dump, name) {
			t.Fatalf("sys.metrics missing %q:\n%s", name, dump)
		}
	}
	for i := 1; i < len(rows.Data); i++ {
		if a, b := rows.Data[i-1][0].(string), rows.Data[i][0].(string); a >= b {
			t.Fatalf("sys.metrics not in name order at row %d: %q >= %q", i, a, b)
		}
	}
	// The value column is a float even where every value is whole.
	if _, ok := rows.Data[0][1].(float64); !ok {
		t.Fatalf("value %v is %T, want float64", rows.Data[0][1], rows.Data[0][1])
	}
}

// TestSlowLogOverWire drops the threshold to one nanosecond so every
// request qualifies, then reads the ring back over the wire as sys.slowlog.
func TestSlowLogOverWire(t *testing.T) {
	db := openBig(t, 8)
	_, addr := startServer(t, db, func(cfg *server.Config) {
		cfg.SlowOpThreshold = time.Nanosecond
		cfg.SlowLogSize = 4
	})
	c := dial(t, addr)

	const q = "SELECT COUNT(*) AS n FROM big AS b"
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	// Like its latency count, a request's slow-log entry lands after its
	// result frame is written (see TestSysMetricsOverWire): poll for it.
	// Every read is slow too, and lands in the ring behind the query.
	var ring [][]any
	pollSlowLog := func(what string, ok func() bool) {
		t.Helper()
		waitUntil(t, 4*time.Second, func() bool {
			rows, err := c.Query("SELECT op, detail, dur_us, start FROM sys.slowlog")
			if err != nil {
				t.Fatal(err)
			}
			ring = rows.Data
			return ok()
		}, what)
	}
	var entry []any
	pollSlowLog("the query's slow-log entry", func() bool {
		for _, e := range ring {
			if e[0] == server.OpQuery && e[1] == q {
				entry = e
			}
		}
		return entry != nil
	})
	if m := metrics(t, c); m["server.slow_threshold_us"] != 0 { // 1ns rounds down to 0µs
		t.Fatalf("server.slow_threshold_us = %v, want 0", m["server.slow_threshold_us"])
	}
	if entry[2].(int64) < 0 {
		t.Fatalf("slow entry has negative duration: %v", entry)
	}
	if _, err := time.Parse(time.RFC3339Nano, entry[3].(string)); err != nil {
		t.Fatalf("slow entry start %q not RFC3339Nano: %v", entry[3], err)
	}

	// Ring capacity bounds retention while the lifetime total keeps
	// counting.
	for i := 0; i < 6; i++ {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 4*time.Second, func() bool { return metrics(t, c)["server.slow_ops_total"] >= 7 },
		"the lifetime total to count every request")
	pollSlowLog("the ring", func() bool { return true })
	if len(ring) > 4 {
		t.Fatalf("ring retained %d entries, capacity 4", len(ring))
	}
}

// TestSlowLogDisabled checks a negative threshold turns the log off:
// sys.slowlog still answers, with an empty ring.
func TestSlowLogDisabled(t *testing.T) {
	db := openBig(t, 8)
	_, addr := startServer(t, db, func(cfg *server.Config) {
		cfg.SlowOpThreshold = -1
	})
	c := dial(t, addr)
	if _, err := c.Query("SELECT COUNT(*) AS n FROM big AS b"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query("SELECT op FROM sys.slowlog")
	if err != nil {
		t.Fatal(err)
	}
	if total := metrics(t, c)["server.slow_ops_total"]; total != 0 || len(rows.Data) != 0 {
		t.Fatalf("disabled slowlog recorded entries: total %v, rows %v", total, rows.Data)
	}
}
