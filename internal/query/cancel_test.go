package query

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"scdb/internal/model"
)

// endlessEnv streams the "endless" table forever — until the executor's
// emit returns false. It is the fixture for cancellation tests: a query
// over it can only finish by being canceled.
type endlessEnv struct {
	*fakeEnv
	emitted atomic.Int64
	stopped atomic.Bool
	// onEmit, when set, runs after every emitted morsel (used to trigger
	// cancellation from inside the stream).
	onEmit func(n int64)
	// emitDelay throttles the producer (deadline tests).
	emitDelay time.Duration
}

func (e *endlessEnv) ScanTable(name string, zone []ZoneConjunct, size int, emit func([]model.Record) bool) (PushedScanInfo, bool) {
	if name != "endless" {
		return e.fakeEnv.ScanTable(name, zone, size, emit)
	}
	for i := int64(0); ; i++ {
		recs := make([]model.Record, size)
		for j := range recs {
			recs[j] = model.Record{"x": model.Int(i), "name": model.String("row")}
		}
		if e.emitDelay > 0 {
			time.Sleep(e.emitDelay)
		}
		if !emit(recs) {
			e.stopped.Store(true)
			return PushedScanInfo{}, true
		}
		n := e.emitted.Add(1)
		if e.onEmit != nil {
			e.onEmit(n)
		}
	}
}

func newEndlessEnv() *endlessEnv {
	e := &endlessEnv{fakeEnv: env()}
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

// TestCancelStopsExecutor: canceling the context mid-query makes every
// worker exit within one morsel boundary and unwinds the scan producer —
// the query over an endless stream returns context.Canceled instead of
// running forever.
func TestCancelStopsExecutor(t *testing.T) {
	e := newEndlessEnv()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.onEmit = func(n int64) {
		if n == 8 {
			cancel()
		}
	}
	plan := planFor(t, e, "SELECT COUNT(*) AS n FROM endless WHERE x >= 0")
	start := time.Now()
	res, _, err := ExecuteOpts(plan, e, ExecOptions{Parallelism: 4, MorselSize: 4, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("canceled query returned a result")
	}
	// ExecuteOpts joins all workers and producers before returning, so by
	// now the endless scan must have unwound via emit returning false.
	if !e.stopped.Load() {
		t.Error("scan producer did not stop")
	}
	// The producer may run ahead by the channel buffer plus the stage
	// backpressure window, but not unboundedly.
	if n := e.emitted.Load(); n > 512 {
		t.Errorf("producer emitted %d morsels after cancellation", n)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("cancellation took %v", d)
	}
}

// TestDeadlineStopsExecutor: a context deadline behaves like cancellation,
// surfacing context.DeadlineExceeded within a morsel boundary.
func TestDeadlineStopsExecutor(t *testing.T) {
	e := newEndlessEnv()
	e.emitDelay = time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	plan := planFor(t, e, "SELECT x FROM endless WHERE x >= 0")
	_, _, err := ExecuteOpts(plan, e, ExecOptions{Parallelism: 2, MorselSize: 8, Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if !e.stopped.Load() {
		t.Error("scan producer did not stop")
	}
}

// TestCancelBeforeExecute: an already-canceled context fails fast without
// emitting more than the pipeline's initial prefetch.
func TestCancelBeforeExecute(t *testing.T) {
	e := newEndlessEnv()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan := planFor(t, e, "SELECT x FROM endless")
	_, _, err := ExecuteOpts(plan, e, ExecOptions{Parallelism: 4, MorselSize: 4, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := e.emitted.Load(); n > 64 {
		t.Errorf("pre-canceled query emitted %d morsels", n)
	}
}

// TestCancelDuringAggregate: the parMap fan-in path (aggregation partials)
// observes cancellation too.
func TestCancelDuringAggregate(t *testing.T) {
	e := newEndlessEnv()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.onEmit = func(n int64) {
		if n == 4 {
			cancel()
		}
	}
	plan := planFor(t, e, "SELECT x, COUNT(*) AS n FROM endless GROUP BY x")
	_, _, err := ExecuteOpts(plan, e, ExecOptions{Parallelism: 4, MorselSize: 4, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
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
