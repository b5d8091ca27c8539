package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

func TestSpanLifecycleAndNesting(t *testing.T) {
	tr := NewTrace()
	root := tr.Root("request")
	plan := root.Child("plan")
	plan.SetBool("plan_cached", false)
	plan.End()
	exec := root.Child("execute")
	exec.SetInt("rows_out", 42)
	scan := exec.ChildDur("op:scan", 3*time.Millisecond)
	scan.SetInt("rows_in", 1000)
	exec.End()
	root.End()

	js := tr.JSON()
	for _, want := range []string{
		`"span": "request"`, `"span": "plan"`, `"span": "execute"`, `"span": "op:scan"`,
		`"plan_cached": false`, `"rows_out": 42`, `"rows_in": 1000`, `"children"`,
	} {
		if !strings.Contains(js, want) {
			t.Fatalf("trace JSON missing %q:\n%s", want, js)
		}
	}
	// ChildDur spans carry their externally measured duration exactly.
	if !strings.Contains(js, `"span": "op:scan", "start_us"`) {
		t.Fatalf("scan span malformed:\n%s", js)
	}
	if !strings.Contains(js, `"dur_us": 3000, "rows_in": 1000`) {
		t.Fatalf("ChildDur did not keep its duration:\n%s", js)
	}
}

func TestSpanRootIdempotentAndDoubleEnd(t *testing.T) {
	tr := NewTrace()
	a := tr.Root("request")
	b := tr.Root("other")
	if a != b {
		t.Fatal("Root should return the same span on repeat calls")
	}
	a.End()
	d := a.dur
	time.Sleep(time.Millisecond)
	a.End()
	if a.dur != d {
		t.Fatal("second End changed the duration")
	}
}

func TestSpanConcurrentWorkers(t *testing.T) {
	tr := NewTrace()
	root := tr.Root("request")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := root.Child(fmt.Sprintf("worker-%d", w))
			for i := 0; i < 100; i++ {
				s.SetInt("iters", int64(i))
				c := s.ChildDur("chunk", time.Microsecond)
				c.SetInt("n", int64(i))
			}
			s.End()
		}(w)
	}
	wg.Wait()
	root.End()
	js := tr.JSON()
	for w := 0; w < 8; w++ {
		if !strings.Contains(js, fmt.Sprintf(`"worker-%d"`, w)) {
			t.Fatalf("missing worker-%d span", w)
		}
	}
}

// TestDisabledTracingZeroAlloc pins the cost of the disabled path: a
// context without a trace must yield nil, and every call on the nil
// trace/span must allocate nothing.
func TestDisabledTracingZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		tr := FromContext(ctx)
		sp := tr.Root("request")
		c := sp.Child("plan")
		c.SetInt("rows", 1)
		c.SetStr("k", "v")
		c.SetDur("wait_us", time.Millisecond)
		c.ChildDur("op", time.Microsecond).End()
		c.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %v times per op, want 0", allocs)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context should carry no trace")
	}
	tr := NewTrace()
	ctx := With(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context round trip")
	}
	if With(context.Background(), nil) != context.Background() {
		t.Fatal("With(nil) should return ctx unchanged")
	}
}

func TestNilTraceJSON(t *testing.T) {
	var tr *Trace
	if got := tr.JSON(); got != "null" {
		t.Fatalf("nil trace JSON = %q, want null", got)
	}
	if got := NewTrace().JSON(); got != "null" {
		t.Fatalf("rootless trace JSON = %q, want null", got)
	}
}

func TestRegistryInstrumentsAndDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(3)
	r.Counter("b.count").Inc() // same instrument
	r.Counter("a.count").Inc()
	r.Gauge("c.depth", func() float64 { return 2.5 })
	h := r.Histogram("lat_us")
	h.Observe(100 * time.Microsecond)
	h.Observe(200 * time.Microsecond)

	d1 := r.Dump()
	d2 := r.Dump()
	if d1 != d2 {
		t.Fatalf("dump not stable:\n%s\nvs\n%s", d1, d2)
	}
	for _, want := range []string{
		"a.count 1\n", "b.count 4\n", "c.depth 2.5\n",
		"lat_us_count 2\n", "lat_us_sum 300\n", "lat_us_max 200\n",
		"lat_us_mean 150\n", "lat_us_p50 ", "lat_us_p99 ",
	} {
		if !strings.Contains(d1, want) {
			t.Fatalf("dump missing %q:\n%s", want, d1)
		}
	}
	lines := strings.Split(strings.TrimSpace(d1), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Fatalf("dump lines not sorted: %q > %q", lines[i-1], lines[i])
		}
	}
}

// TestDumpGaugeOutsideLock: gauge callbacks run outside the registry lock,
// so one that reaches back into the registry — directly here; in the
// server, by waiting on a lock whose holder is registering an instrument —
// cannot deadlock the dump.
func TestDumpGaugeOutsideLock(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", func() float64 { return float64(r.Counter("c").Value()) })
	done := make(chan string, 1)
	go func() { done <- r.Dump() }()
	select {
	case dump := <-done:
		if !strings.Contains(dump, "g 0\n") {
			t.Fatalf("dump missing the gauge:\n%s", dump)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Dump deadlocked on a gauge callback that uses the registry")
	}
}

// TestGaugesReadOnce: a gauge group is one snapshot per registry read,
// however many names it answers, so its rows agree with each other.
func TestGaugesReadOnce(t *testing.T) {
	r := NewRegistry()
	reads := 0
	r.Gauges([]string{"g.a", "g.b", "g.c"}, func(vals []float64) {
		reads++
		vals[0], vals[1], vals[2] = float64(reads), float64(10*reads), float64(100*reads)
	})
	if got, want := r.Dump(), "g.a 1\ng.b 10\ng.c 100\n"; got != want {
		t.Fatalf("dump = %q, want %q", got, want)
	}
	if _, rows, _ := r.Relation("sys.metrics"); len(rows) != 3 || reads != 2 {
		t.Fatalf("sys.metrics: %d rows after %d reads of the group, want 3 rows and 2 reads", len(rows), reads)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.ObserveValue(10) // bucket [8,16) → upper edge 16
	}
	h.ObserveValue(100000)
	s := h.Snapshot()
	if got := s.Quantile(0.50); got != 16 {
		t.Fatalf("p50 = %d, want 16", got)
	}
	if got := s.Quantile(1.0); got < 100000 {
		t.Fatalf("p100 = %d, want >= 100000", got)
	}
	if s.Max != 100000 {
		t.Fatalf("max = %d", s.Max)
	}
}

func TestNilInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter should stay 0")
	}
	h := r.Histogram("y")
	h.Observe(time.Second)
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram should stay empty")
	}
	r.Gauge("z", func() float64 { return 1 })
	if r.Dump() != "" {
		t.Fatal("nil registry dump should be empty")
	}
}

func TestSlowLogThresholdAndEviction(t *testing.T) {
	l := NewSlowLog(3, 10*time.Millisecond)
	base := time.Now()
	l.Observe("query", "fast", base, 5*time.Millisecond, nil) // below threshold
	for i := 1; i <= 5; i++ {
		l.Observe("query", fmt.Sprintf("q%d", i), base, time.Duration(10+i)*time.Millisecond, nil)
	}
	entries, total := l.Snapshot()
	if total != 5 {
		t.Fatalf("total = %d, want 5 (fast op must not count)", total)
	}
	if len(entries) != 3 {
		t.Fatalf("retained %d entries, want 3", len(entries))
	}
	// Oldest-first, with the two oldest slow ops evicted.
	for i, want := range []string{"q3", "q4", "q5"} {
		if entries[i].Detail != want {
			t.Fatalf("entry %d = %q, want %q (got %+v)", i, entries[i].Detail, want, entries)
		}
	}
}

func TestSlowLogErrAndTruncation(t *testing.T) {
	l := NewSlowLog(2, time.Millisecond)
	long := strings.Repeat("x", maxDetail+100)
	l.Observe("query", long, time.Now(), time.Second, errors.New("deadline"))
	entries, _ := l.Snapshot()
	if len(entries) != 1 {
		t.Fatalf("retained %d entries", len(entries))
	}
	if entries[0].Err != "deadline" {
		t.Fatalf("err = %q", entries[0].Err)
	}
	if len(entries[0].Detail) != maxDetail+3 {
		t.Fatalf("detail not truncated: %d bytes", len(entries[0].Detail))
	}
	// A multibyte rune straddling the cut stays whole: the cut moves back
	// to its first byte.
	l.Observe("query", "SELECT 'x"+strings.Repeat("é", 300), time.Now(), time.Second, nil)
	entries, _ = l.Snapshot()
	if d := entries[1].Detail; !utf8.ValidString(d) || len(d) != maxDetail-1+3 || !strings.HasSuffix(d, "é...") {
		t.Fatalf("multibyte detail cut badly: %d bytes, valid %v, tail %q", len(d), utf8.ValidString(d), d[len(d)-8:])
	}
	// Bytes that are not UTF-8 (continuation bytes only) stop the walk a
	// rune's width back instead of running off the front.
	l.Observe("query", strings.Repeat("\x80", 600), time.Now(), time.Second, nil)
	entries, _ = l.Snapshot()
	if d := entries[1].Detail; len(d) != maxDetail-utf8.UTFMax+3 {
		t.Fatalf("invalid detail cut at %d bytes", len(d))
	}
}

func TestSlowLogDisabled(t *testing.T) {
	for _, l := range []*SlowLog{nil, NewSlowLog(0, time.Second), NewSlowLog(8, 0)} {
		l.Observe("query", "q", time.Now(), time.Hour, nil)
		if e, n := l.Snapshot(); len(e) != 0 || n != 0 {
			t.Fatalf("disabled slow log recorded entries: %v %d", e, n)
		}
		if l.Threshold() != 0 {
			t.Fatal("disabled slow log should report zero threshold")
		}
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(16, time.Microsecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Observe("query", "q", time.Now(), time.Millisecond, nil)
			}
		}()
	}
	wg.Wait()
	entries, total := l.Snapshot()
	if total != 1600 {
		t.Fatalf("total = %d, want 1600", total)
	}
	if len(entries) != 16 {
		t.Fatalf("retained %d, want 16", len(entries))
	}
}
