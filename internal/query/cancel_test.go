package query

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"scdb/internal/model"
)

// endlessEnv scans the "endless" table forever: its cursor yields a morsel
// on every pull and never runs out. It is the fixture for cancellation
// tests: a query over it can only finish by being canceled. It counts its
// pulls, and the pulls made after ctx ended.
type endlessEnv struct {
	*fakeEnv
	ctx   context.Context
	pulls atomic.Int64
	late  atomic.Int64
	// onPull, when set, runs after every pull (used to trigger
	// cancellation from inside the stream).
	onPull func(n int64)
	// pullDelay throttles the scan (deadline tests).
	pullDelay time.Duration
}

type endlessCursor struct {
	e    *endlessEnv
	size int
}

func (c *endlessCursor) Next() []model.Record {
	e := c.e
	if e.ctx.Err() != nil {
		e.late.Add(1)
	}
	if e.pullDelay > 0 {
		time.Sleep(e.pullDelay)
	}
	n := e.pulls.Add(1)
	recs := make([]model.Record, c.size)
	for j := range recs {
		recs[j] = model.Record{"x": model.Int(n), "name": model.String("row")}
	}
	if e.onPull != nil {
		e.onPull(n)
	}
	return recs
}

func (c *endlessCursor) Info() PushedScanInfo { return PushedScanInfo{} }

func (e *endlessEnv) ScanTable(name string, zone []model.Conjunct, size int) (ScanCursor, bool) {
	if name != "endless" {
		return e.fakeEnv.ScanTable(name, zone, size)
	}
	return &endlessCursor{e: e, size: size}, true
}

func newEndlessEnv(ctx context.Context) *endlessEnv {
	e := &endlessEnv{fakeEnv: env(), ctx: ctx}
	// Register the table name so the planner resolves FROM endless.
	e.fakeEnv.tables["endless"] = []model.Record{{"x": model.Int(0)}}
	return e
}

func planFor(t *testing.T, e Resolver, src string) Node {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	plan, err := BuildPlan(stmt, e)
	if err != nil {
		t.Fatalf("BuildPlan(%q): %v", src, err)
	}
	return plan
}

// runCanceled executes plan over e at workers workers and asserts what a
// canceled query owes: the context's error surfaces and no result; the scan
// is pulled at most workers×5 times after the context ended (each worker
// finishes the morsel it holds, and no stage runs further ahead than its
// ring); and no goroutine the query started outlives ExecuteOpts.
func runCanceled(t *testing.T, e *endlessEnv, src string, workers int, want error) {
	t.Helper()
	plan := planFor(t, e, src)
	base := runtime.NumGoroutine()
	start := time.Now()
	res, _, err := ExecuteOpts(plan, e, ExecOptions{Parallelism: workers, MorselSize: 4, Ctx: e.ctx})
	if !errors.Is(err, want) {
		t.Fatalf("%s: err = %v, want %v", src, err, want)
	}
	if res != nil {
		t.Errorf("%s: canceled query returned a result", src)
	}
	if n := e.late.Load(); n > int64(workers*5) {
		t.Errorf("%s: scan pulled %d times after cancellation, want at most %d", src, n, workers*5)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("%s: cancellation took %v", src, d)
	}
	// ExecuteOpts joins every worker; a joined goroutine may still be
	// unwinding its last deferred call.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after ExecuteOpts returned, %d before", src, runtime.NumGoroutine(), base)
		}
	}
}

// TestCancelStopsExecutor: canceling the context mid-query makes every
// worker exit within one morsel boundary and stops pulling the scan — the
// query over an endless stream returns context.Canceled instead of running
// forever.
func TestCancelStopsExecutor(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := newEndlessEnv(ctx)
	e.onPull = func(n int64) {
		if n == 8 {
			cancel()
		}
	}
	runCanceled(t, e, "SELECT COUNT(*) AS n FROM endless WHERE x >= 0", 4, context.Canceled)
}

// TestDeadlineStopsExecutor: a context deadline behaves like cancellation,
// surfacing context.DeadlineExceeded within a morsel boundary.
func TestDeadlineStopsExecutor(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	e := newEndlessEnv(ctx)
	e.pullDelay = time.Millisecond
	runCanceled(t, e, "SELECT x FROM endless WHERE x >= 0", 2, context.DeadlineExceeded)
}

// TestCancelBeforeExecute: an already-canceled context fails at the first
// morsel, on the caller's goroutine.
func TestCancelBeforeExecute(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := newEndlessEnv(ctx)
	runCanceled(t, e, "SELECT x FROM endless", 4, context.Canceled)
	if n := e.pulls.Load(); n != 1 {
		t.Errorf("pre-canceled query pulled the scan %d times, want 1", n)
	}
}

// TestCancelDuringAggregate: the aggregation partials' stage observes
// cancellation too.
func TestCancelDuringAggregate(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := newEndlessEnv(ctx)
	e.onPull = func(n int64) {
		if n == 4 {
			cancel()
		}
	}
	runCanceled(t, e, "SELECT x, COUNT(*) AS n FROM endless GROUP BY x", 4, context.Canceled)
}

// TestNilCtxBackground: a nil Ctx means no cancellation — results match the
// plain path (regression guard for the default).
func TestNilCtxBackground(t *testing.T) {
	res, err := runOpts(t, "SELECT name FROM drugs ORDER BY name", ExecOptions{Parallelism: 4, MorselSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
}
