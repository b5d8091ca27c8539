package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scdb/internal/model"
)

// HistBuckets is the bucket count of the fixed log2 histogram: bucket i
// counts observations in [2^i, 2^(i+1)). For latencies the unit is the
// microsecond, making the last bucket ~34 s; the same shape serves batch
// sizes and rows/sec.
const HistBuckets = 25

// Counter is a monotonic counter. All methods are safe on a nil receiver
// so optional instrumentation can be wired unconditionally.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-size log2 histogram, internally synchronized.
// Percentiles read back as the upper edge of the bucket holding the
// quantile — a ≤2× overestimate, which is enough to see admission
// control and saturation. Nil receivers no-op.
type Histogram struct {
	mu     sync.Mutex
	counts [HistBuckets]uint64
	count  uint64
	sum    uint64
	max    uint64
}

// Observe records a duration in microseconds.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveValue(uint64(d.Microseconds()))
}

// ObserveValue records a raw value (rows, bytes, rows/sec).
func (h *Histogram) ObserveValue(v uint64) {
	if h == nil {
		return
	}
	b := 0
	for x := v; x > 1 && b < HistBuckets-1; x >>= 1 {
		b++
	}
	h.mu.Lock()
	h.counts[b]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// HistSnapshot is a consistent point-in-time copy of a Histogram.
type HistSnapshot struct {
	Counts [HistBuckets]uint64
	Count  uint64
	Sum    uint64
	Max    uint64
}

// Snapshot copies the histogram state under its lock.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{Counts: h.counts, Count: h.count, Sum: h.sum, Max: h.max}
}

// Mean returns the arithmetic mean of all observations, 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the upper bucket edge at q (0 < q <= 1).
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			return uint64(1) << (i + 1)
		}
	}
	return s.Max
}

// Registry is a node's description of itself: a flat, name-keyed set of
// instruments and the system relations built on them. Names follow the
// snake_case dotted convention documented in OPERATIONS.md
// (e.g. "server.requests_total", "wal.fsync_wait_us"). Instruments are
// get-or-create: the first caller of a name allocates it, later callers
// share it. A nil *Registry returns nil instruments, which in turn no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]gaugeGroup
	hists    map[string]*Histogram
	tables   map[string]table
}

// gaugeGroup is gauges sampled together: one call of read fills vals[i]
// for names[i].
type gaugeGroup struct {
	names []string
	read  func(vals []float64)
}

// table is a registered system relation: its columns and a callback
// building its rows, a value per column.
type table struct {
	cols []string
	rows func() [][]model.Value
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]gaugeGroup{},
		hists:    map[string]*Histogram{},
		tables:   map[string]table{},
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers a callback sampled at read time. Re-registering a name
// replaces the callback (useful when a component is swapped out).
func (r *Registry) Gauge(name string, fn func() float64) {
	r.Gauges([]string{name}, func(vals []float64) { vals[0] = fn() })
}

// Gauges registers gauges sampled together at read time: one call of read
// fills vals[i] for names[i], so a registry read takes one snapshot for the
// group and its values agree with each other. Re-registering a group under
// the same first name replaces it.
func (r *Registry) Gauges(names []string, read func(vals []float64)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[names[0]] = gaugeGroup{names, read}
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Table registers the system relation name (sys.<name>): its columns and a
// callback building its rows at read time. Re-registering replaces it.
func (r *Registry) Table(name string, cols []string, rows func() [][]model.Value) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tables[name] = table{cols, rows}
	r.mu.Unlock()
}

// metricsRelation is the system relation that lists the instruments, a
// (name, value) row each.
const metricsRelation = "sys.metrics"

// IsSystem reports whether a FROM name is a system relation's.
func IsSystem(name string) bool { return strings.HasPrefix(name, "sys.") }

// HasRelation reports whether the registry answers the system relation
// name.
func (r *Registry) HasRelation(name string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.tables[name]
	return ok || name == metricsRelation
}

// Relation answers the system relation name: sys.metrics lists every
// instrument as a (name, value) row in name order; any other name is a
// registered table. The rows are built now, outside the registry's lock.
func (r *Registry) Relation(name string) (cols []string, rows [][]model.Value, ok bool) {
	if name == metricsRelation {
		for _, s := range r.samples() {
			rows = append(rows, []model.Value{model.String(s.name), model.Float(s.value)})
		}
		return []string{"name", "value"}, rows, r != nil
	}
	if r == nil {
		return nil, nil, false
	}
	r.mu.Lock()
	t, ok := r.tables[name]
	r.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	return t.cols, t.rows(), true
}

// sample is one instrument's reading; a histogram reads as seven.
type sample struct {
	name  string
	value float64
}

// samples reads every instrument in name order. Histograms expand to
// _count, _sum, _max, _mean, _p50, _p95 and _p99.
func (r *Registry) samples() []sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]sample, 0, len(r.counters)+len(r.gauges)+7*len(r.hists))
	for name, c := range r.counters {
		out = append(out, sample{name, float64(c.Value())})
	}
	groups := make([]gaugeGroup, 0, len(r.gauges))
	for _, g := range r.gauges {
		groups = append(groups, g)
	}
	for name, h := range r.hists {
		s := h.Snapshot()
		out = append(out,
			sample{name + "_count", float64(s.Count)},
			sample{name + "_sum", float64(s.Sum)},
			sample{name + "_max", float64(s.Max)},
			sample{name + "_mean", s.Mean()},
			sample{name + "_p50", float64(s.Quantile(0.50))},
			sample{name + "_p95", float64(s.Quantile(0.95))},
			sample{name + "_p99", float64(s.Quantile(0.99))},
		)
	}
	r.mu.Unlock()
	// Gauge callbacks are caller code and run outside the lock: one that
	// takes a lock its owner holds while registering an instrument (the
	// server's conns_open gauge against metrics.cell) would otherwise
	// deadlock the read.
	for _, g := range groups {
		vals := make([]float64, len(g.names))
		g.read(vals)
		for i, name := range g.names {
			out = append(out, sample{name, vals[i]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Dump renders every instrument as "name value" lines in name order, so
// two dumps of identical state are byte-identical: the text the debug
// listener serves at /metrics.
func (r *Registry) Dump() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, s := range r.samples() {
		b.WriteString(s.name + " " + formatFloat(s.value) + "\n")
	}
	return b.String()
}

func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
}
