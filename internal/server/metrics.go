package server

import (
	"sync"
	"time"

	"scdb/internal/obs"
)

// ServerStats is the service layer's live counters.
type ServerStats struct {
	// InFlight / Queued / InFlightPeak come from the admission controller.
	InFlight     int
	Queued       int
	InFlightPeak int
	// Rejected counts requests shed with ErrBusy; Canceled counts
	// statements stopped by deadline, disconnect, or shutdown.
	Rejected uint64
	Canceled uint64
	// Conns is open connections; ConnsTotal is lifetime accepts.
	Conns      int
	ConnsTotal uint64
}

// metrics is the service layer's instrument set. Every instrument lives in
// the node's obs.Registry — Server.Stats' snapshot, sys.metrics and the
// debug listener's dump read the same state. The per-op map only caches
// registry lookups (ops arrive as request strings).
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
	m.mu.Lock()
	conns := m.conns
	m.mu.Unlock()
	return ServerStats{
		Rejected:   m.rejected.Value(),
		Canceled:   m.canceled.Value(),
		Conns:      conns,
		ConnsTotal: m.connsTotal.Value(),
	}
}
