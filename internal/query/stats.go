package query

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// OpStats is one node of the per-operator runtime statistics tree built by
// ExecuteOpts, mirroring the plan tree. Counters are updated with atomics
// because several workers tally into the same node concurrently. Elapsed is
// the operator's busy time summed over all workers (so it can exceed wall
// clock on a parallel run, exactly like MonetDB's per-operator profile).
// Node is the plan node the stats describe; its label is rendered only by
// Render and the trace, never while the statement runs.
type OpStats struct {
	Node     Node
	RowsIn   int64
	RowsOut  int64
	Morsels  int64
	Elapsed  time.Duration
	Children []*OpStats

	// Access-path counters, populated by IndexScan operators. ShowPruned
	// distinguishes "prunable operator, zero pruned" from operators where
	// pruning does not apply. Written by whoever pulls the scan, pulls being
	// serialized, and read only once the executor has joined its workers,
	// so plain fields are safe.
	ShowPruned bool
	Pruned     int64  // zone-map segments (morsels) skipped before workers
	IndexName  string // secondary index used, "" for a plain zone scan
}

// newOpStats makes n's stats node over its children's, the node and its
// Children backing in one allocation (no operator has more than two).
func newOpStats(n Node, children ...*OpStats) *OpStats {
	s := &struct {
		OpStats
		kids [2]*OpStats
	}{}
	s.Node = n
	if len(children) > 0 {
		s.Children = append(s.kids[:0], children...)
	}
	return &s.OpStats
}

// tally records one morsel's worth of work.
func (s *OpStats) tally(in, out int, d time.Duration) {
	atomic.AddInt64(&s.RowsIn, int64(in))
	atomic.AddInt64(&s.RowsOut, int64(out))
	atomic.AddInt64(&s.Morsels, 1)
	atomic.AddInt64((*int64)(&s.Elapsed), int64(d))
}

// tallyRows records row counts and time without counting a morsel (used for
// pipeline-breaker phases that work on the whole input at once).
func (s *OpStats) tallyRows(in, out int, d time.Duration) {
	atomic.AddInt64(&s.RowsIn, int64(in))
	atomic.AddInt64(&s.RowsOut, int64(out))
	atomic.AddInt64((*int64)(&s.Elapsed), int64(d))
}

// Render formats the stats tree like Explain, one node per line with the
// runtime counters appended — the body of EXPLAIN ANALYZE.
func (s *OpStats) Render() string {
	var b strings.Builder
	s.render(&b, 0)
	return b.String()
}

func (s *OpStats) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.Node.Label())
	fmt.Fprintf(b, "  (in=%d out=%d morsels=%d",
		atomic.LoadInt64(&s.RowsIn), atomic.LoadInt64(&s.RowsOut),
		atomic.LoadInt64(&s.Morsels))
	if s.ShowPruned {
		fmt.Fprintf(b, " pruned=%d", s.Pruned)
	}
	fmt.Fprintf(b, " time=%s)",
		time.Duration(atomic.LoadInt64((*int64)(&s.Elapsed))).Round(time.Microsecond))
	if s.IndexName != "" {
		fmt.Fprintf(b, "  index: %s", s.IndexName)
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		c.render(b, depth+1)
	}
}
