package server

import (
	"sort"
	"sync"
	"time"

	"scdb/internal/obs"
)

// OpCounters is one operation's counters in a stats snapshot.
type OpCounters struct {
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	MeanUS float64 `json:"mean_us"`
	P50US  uint64  `json:"p50_us"`
	P95US  uint64  `json:"p95_us"`
	P99US  uint64  `json:"p99_us"`
	MaxUS  uint64  `json:"max_us"`
}

// ServerStats is the service layer's live metrics surface.
type ServerStats struct {
	// Ops maps op name to its counters, latency measured request-entry to
	// response-ready (admission wait included).
	Ops map[string]OpCounters `json:"ops"`
	// InFlight / Queued / InFlightPeak come from the admission controller.
	InFlight     int `json:"in_flight"`
	Queued       int `json:"queued"`
	InFlightPeak int `json:"in_flight_peak"`
	// Rejected counts requests shed with ErrBusy; Canceled counts
	// statements stopped by deadline, disconnect, or shutdown.
	Rejected uint64 `json:"rejected"`
	Canceled uint64 `json:"canceled"`
	// Conns is open connections; ConnsTotal is lifetime accepts.
	Conns      int    `json:"conns"`
	ConnsTotal uint64 `json:"conns_total"`
	// Ingest covers the batch write path (ingest_batch).
	Ingest IngestMetrics `json:"ingest"`
	// SlowOps is the lifetime count of operations recorded by the slow-op
	// log (including entries its ring has since evicted).
	SlowOps uint64 `json:"slow_ops,omitempty"`
}

// IngestMetrics summarizes the server's ingest traffic: batch sizes in
// rows and per-batch throughput in rows/sec, each as a log2 histogram
// readout.
type IngestMetrics struct {
	Batches    uint64  `json:"batches"`
	Rows       uint64  `json:"rows"`
	MeanBatch  float64 `json:"mean_batch"`
	P50Batch   uint64  `json:"p50_batch"`
	P95Batch   uint64  `json:"p95_batch"`
	MaxBatch   uint64  `json:"max_batch"`
	MeanRowsPS float64 `json:"mean_rows_ps"`
	P50RowsPS  uint64  `json:"p50_rows_ps"`
	P95RowsPS  uint64  `json:"p95_rows_ps"`
	MaxRowsPS  uint64  `json:"max_rows_ps"`
}

// metrics is the service layer's instrument set. Every instrument lives in
// the shared obs.Registry — the snapshot rendered for the stats op and the
// text dump served by the metrics op read the same state. The per-op map
// only caches registry lookups (ops arrive as request strings).
type metrics struct {
	reg *obs.Registry

	mu  sync.Mutex
	ops map[string]*opCell
	// conns is a gauge (open connections go up and down), so it stays a
	// plain field sampled by the registry at dump time.
	conns int

	rejected   *obs.Counter
	canceled   *obs.Counter
	connsTotal *obs.Counter

	ingestBatch *obs.Histogram // rows per installed batch
	ingestRate  *obs.Histogram // rows/sec per installed batch
	ingestRows  *obs.Counter
}

type opCell struct {
	errors *obs.Counter
	hist   *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		reg:         reg,
		ops:         map[string]*opCell{},
		rejected:    reg.Counter("server.rejected_total"),
		canceled:    reg.Counter("server.canceled_total"),
		connsTotal:  reg.Counter("server.conns_total"),
		ingestBatch: reg.Histogram("server.ingest_batch_rows"),
		ingestRate:  reg.Histogram("server.ingest_rows_per_sec"),
		ingestRows:  reg.Counter("server.ingest_rows_total"),
	}
	reg.Gauge("server.conns_open", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.conns)
	})
	return m
}

func (m *metrics) cell(op string) *opCell {
	m.mu.Lock()
	c := m.ops[op]
	if c == nil {
		c = &opCell{
			errors: m.reg.Counter("server.op." + op + ".errors_total"),
			hist:   m.reg.Histogram("server.op." + op + ".latency_us"),
		}
		m.ops[op] = c
	}
	m.mu.Unlock()
	return c
}

func (m *metrics) observe(op string, d time.Duration, failed bool) {
	c := m.cell(op)
	c.hist.Observe(d)
	if failed {
		c.errors.Inc()
	}
}

// observeIngest records one installed batch: its size in rows and the
// throughput it achieved.
func (m *metrics) observeIngest(rows int, d time.Duration) {
	if rows <= 0 {
		return
	}
	rate := uint64(0)
	if s := d.Seconds(); s > 0 {
		rate = uint64(float64(rows) / s)
	}
	m.ingestBatch.ObserveValue(uint64(rows))
	m.ingestRate.ObserveValue(rate)
	m.ingestRows.Add(uint64(rows))
}

func (m *metrics) reject() { m.rejected.Inc() }
func (m *metrics) cancel() { m.canceled.Inc() }

func (m *metrics) connOpen() {
	m.mu.Lock()
	m.conns++
	m.mu.Unlock()
	m.connsTotal.Inc()
}

func (m *metrics) connClose() {
	m.mu.Lock()
	m.conns--
	m.mu.Unlock()
}

// snapshot renders the counters; admission depths are merged in by the
// caller, which owns the admitter.
func (m *metrics) snapshot() ServerStats {
	batch := m.ingestBatch.Snapshot()
	rate := m.ingestRate.Snapshot()
	m.mu.Lock()
	conns := m.conns
	names := make([]string, 0, len(m.ops))
	for name := range m.ops {
		names = append(names, name)
	}
	cells := make([]*opCell, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		cells = append(cells, m.ops[name])
	}
	m.mu.Unlock()
	out := ServerStats{
		Ops:        make(map[string]OpCounters, len(names)),
		Rejected:   m.rejected.Value(),
		Canceled:   m.canceled.Value(),
		Conns:      conns,
		ConnsTotal: m.connsTotal.Value(),
		Ingest: IngestMetrics{
			Batches:    batch.Count,
			Rows:       m.ingestRows.Value(),
			MeanBatch:  batch.Mean(),
			P50Batch:   batch.Quantile(0.50),
			P95Batch:   batch.Quantile(0.95),
			MaxBatch:   batch.Max,
			MeanRowsPS: rate.Mean(),
			P50RowsPS:  rate.Quantile(0.50),
			P95RowsPS:  rate.Quantile(0.95),
			MaxRowsPS:  rate.Max,
		},
	}
	for i, name := range names {
		h := cells[i].hist.Snapshot()
		out.Ops[name] = OpCounters{
			Count:  h.Count,
			Errors: cells[i].errors.Value(),
			MeanUS: h.Mean(),
			P50US:  h.Quantile(0.50),
			P95US:  h.Quantile(0.95),
			P99US:  h.Quantile(0.99),
			MaxUS:  h.Max,
		}
	}
	return out
}
