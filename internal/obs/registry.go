package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
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

// Registry is a flat, name-keyed set of instruments. Names follow the
// snake_case dotted convention documented in OPERATIONS.md
// (e.g. "server.requests_total", "wal.fsync_wait_us"). Instruments are
// get-or-create: the first caller of a name allocates it, later callers
// share it. A nil *Registry returns nil instruments, which in turn no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]func() float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]func() float64{},
		hists:    map[string]*Histogram{},
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

// Gauge registers a callback sampled at dump time. Re-registering a name
// replaces the callback (useful when a component is swapped out).
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = fn
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

// Dump renders every instrument as "name value" lines in sorted order, so
// two dumps of identical state are byte-identical. Histograms expand to
// _count, _sum, _max, _mean, _p50, _p95, and _p99 lines. This is the text
// served by the "metrics" wire op and the debug listener's /metrics.
func (r *Registry) Dump() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	lines := make([]string, 0, len(r.counters)+len(r.gauges)+7*len(r.hists))
	for name, c := range r.counters {
		lines = append(lines, name+" "+strconv.FormatUint(c.Value(), 10))
	}
	gauges := make(map[string]func() float64, len(r.gauges))
	for name, fn := range r.gauges {
		gauges[name] = fn
	}
	for name, h := range r.hists {
		s := h.Snapshot()
		lines = append(lines,
			name+"_count "+strconv.FormatUint(s.Count, 10),
			name+"_sum "+strconv.FormatUint(s.Sum, 10),
			name+"_max "+strconv.FormatUint(s.Max, 10),
			name+"_mean "+formatFloat(s.Mean()),
			name+"_p50 "+strconv.FormatUint(s.Quantile(0.50), 10),
			name+"_p95 "+strconv.FormatUint(s.Quantile(0.95), 10),
			name+"_p99 "+strconv.FormatUint(s.Quantile(0.99), 10),
		)
	}
	r.mu.Unlock()
	// Gauge callbacks are caller code and run outside the lock: one that
	// takes a lock its owner holds while registering an instrument (the
	// server's conns_open gauge against metrics.cell) would otherwise
	// deadlock the dump.
	for name, fn := range gauges {
		lines = append(lines, name+" "+formatFloat(fn()))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
}
