package main

// Tracing from outside. The harness records its own spans around calls
// into the program, and adopts the span trees the program already returns
// through its public API (TRACE <stmt>, client.IngestTraced). All spans of
// a run stay in memory and go to one spans.jsonl when the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"scdb"
)

// traceNode is one span of a tree the program returned.
type traceNode struct {
	Span     string      `json:"span"`
	StartUS  int64       `json:"start_us"`
	DurUS    int64       `json:"dur_us"`
	RowsIn   *int64      `json:"rows_in"`
	RowsOut  *int64      `json:"rows_out"`
	Children []traceNode `json:"children"`
}

func parseTrace(text string) (*traceNode, error) {
	var n traceNode
	if err := json.Unmarshal([]byte(text), &n); err != nil {
		return nil, fmt.Errorf("trace is not a span tree: %w", err)
	}
	return &n, nil
}

// traceText reassembles a TRACE statement's one-line-per-row answer.
func traceText(rows *scdb.Rows) (string, error) {
	if rows == nil || len(rows.Columns) != 1 || rows.Columns[0] != "trace" {
		return "", fmt.Errorf("TRACE answered with columns %v, want [trace]", rows.Columns)
	}
	var b strings.Builder
	for _, r := range rows.Data {
		s, _ := r[0].(string)
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// find returns the first span of the given name, depth first.
func (n *traceNode) find(name string) *traceNode {
	if n == nil {
		return nil
	}
	if n.Span == name {
		return n
	}
	for i := range n.Children {
		if f := n.Children[i].find(name); f != nil {
			return f
		}
	}
	return nil
}

// walk visits every span of the tree.
func (n *traceNode) walk(f func(*traceNode)) {
	f(n)
	for i := range n.Children {
		n.Children[i].walk(f)
	}
}

// leafRowsIn is rows_in of the deepest operator (the scan), and
// scanBusyUS the summed busy time of every operator whose name says Scan.
func (n *traceNode) leafRowsIn() (int64, bool) {
	var leaf *traceNode
	n.walk(func(s *traceNode) {
		if strings.HasPrefix(s.Span, "op:") && len(s.Children) == 0 && s.RowsIn != nil {
			leaf = s
		}
	})
	if leaf == nil {
		return 0, false
	}
	return *leaf.RowsIn, true
}

func (n *traceNode) scanBusyUS() float64 {
	var busy float64
	n.walk(func(s *traceNode) {
		if strings.HasPrefix(s.Span, "op:") && strings.Contains(s.Span, "Scan") {
			busy += float64(s.DurUS)
		}
	})
	return busy
}

// span is one harness span. Times are microseconds since the run began.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Op      int    `json:"op"`     // spans of one request share it; 0 for phases
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	// Clock says how a span's times were placed: "harness" spans were
	// timed here; "program" spans come from a returned tree, whose offsets
	// are relative to its own root, which the harness centres inside the
	// call that fetched it (the split between send and receive is unknown).
	Clock string `json:"clock"`
}

// spanLog collects spans. It is filled between windows, never inside one.
type spanLog struct {
	origin time.Time
	spans  []span
	nextOp int
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(parent, op int, name string, start, end time.Time) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Clock: "harness",
		StartUS: start.Sub(l.origin).Microseconds(), EndUS: end.Sub(l.origin).Microseconds(),
	})
	return id
}

// phase records a harness phase (set-up, window, probe) that just ended.
func (l *spanLog) phase(name string, start time.Time) {
	l.add(-1, 0, name, start, time.Now())
}

// adopt hangs a returned tree under the harness span that fetched it.
func (l *spanLog) adopt(parent, op int, tree *traceNode) {
	p := l.spans[parent]
	base := p.StartUS + max(0, (p.EndUS-p.StartUS-tree.DurUS)/2)
	var rec func(n *traceNode, parent int)
	rec = func(n *traceNode, parent int) {
		id := len(l.spans)
		l.spans = append(l.spans, span{
			ID: id, Parent: parent, Op: op, Name: n.Span, Clock: "program",
			StartUS: base + n.StartUS, EndUS: base + n.StartUS + n.DurUS,
		})
		for i := range n.Children {
			rec(&n.Children[i], id)
		}
	}
	rec(tree, parent)
}

// op records one traced request: the harness span around the call and the
// program's tree beneath it.
func (l *spanLog) op(name string, start, end time.Time, tree *traceNode) {
	l.nextOp++
	id := l.add(-1, l.nextOp, name, start, end)
	if tree != nil {
		l.adopt(id, l.nextOp, tree)
	}
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover: the time a layer spent itself. Operator spans carry busy
// time summed over workers, so a child may exceed its parent; self time is
// floored at 0 there.
func (l *spanLog) selfTimes() map[string]float64 {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndUS - s.StartUS
		}
	}
	out := map[string]float64{}
	for _, s := range l.spans {
		name := s.Name
		if strings.HasPrefix(name, "op:") {
			// "op:IndexScan items AS ..." -> "op:IndexScan"
			name, _, _ = strings.Cut(name, " ")
		}
		out[name] += float64(max(0, s.EndUS-s.StartUS-child[s.ID]))
	}
	return out
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
