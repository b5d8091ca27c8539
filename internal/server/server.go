package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"time"

	"scdb/internal/model"
	"scdb/internal/obs"
)

// Config configures a Server. The zero value of every field picks a
// sensible default; DB is required.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for tests).
	Addr string
	// DB is the engine the server fronts — usually an embedded *scdb.DB,
	// but any Engine works (the shard router fronts a whole cluster
	// through the same server). A DB that is also a Node serves the
	// store-level ops and sys.replicas.
	DB Engine

	// MaxInFlight bounds concurrently executing statements (query,
	// explain, ingest). 0 means 2×GOMAXPROCS-ish default of 16; negative
	// disables admission control entirely.
	MaxInFlight int
	// MaxQueue bounds waiters beyond MaxInFlight before arrivals are shed
	// with ErrBusy (default 64).
	MaxQueue int
	// QueueTimeout bounds every admission wait, as the request's deadline
	// does (default 1s; negative: only the deadline bounds it).
	QueueTimeout time.Duration

	// DefaultTimeout applies when a request carries no timeout (default
	// 30s); MaxTimeout clamps client-supplied timeouts (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// FrameTimeout bounds reading one complete frame once its first byte
	// arrives — the slow-loris guard (default 10s). MaxFrame bounds a
	// frame payload (default DefaultMaxFrame). FrameTimeout also bounds
	// each response-frame write, so a client that stops reading mid-stream
	// cannot pin an executor (and its read lock) behind a full socket
	// buffer.
	FrameTimeout time.Duration
	MaxFrame     int

	// MaxPipeline bounds in-flight requests per connection;
	// excess requests are shed with ErrBusy. 0 means 128; negative
	// disables the bound. (Admission control still bounds execution
	// globally — this only caps per-connection bookkeeping.)
	MaxPipeline int

	// SlowOpThreshold routes any request at or above this duration into
	// the slow-op ring log (default 100ms; negative disables the log).
	// SlowLogSize is the ring's capacity (default 128).
	SlowOpThreshold time.Duration
	SlowLogSize     int

	// ReplStats, when set, supplies the repl.lag_* gauges. A follower
	// process sets it to report its lag; a primary leaves it nil (the
	// server builds primary-side stats from its live subscriptions).
	ReplStats func() *WireReplStats
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 16
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = time.Second
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.FrameTimeout == 0 {
		c.FrameTimeout = 10 * time.Second
	}
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.MaxPipeline == 0 {
		c.MaxPipeline = 128
	}
	if c.SlowOpThreshold == 0 {
		c.SlowOpThreshold = 100 * time.Millisecond
	}
	if c.SlowLogSize == 0 {
		c.SlowLogSize = 128
	}
	return c
}

// Server serves the frame protocol over TCP. Every connection gets its own
// goroutine; every statement executes under its request, a context whose
// cancellation reaches the morsel executor's workers and the storage
// scans, so deadlines, client disconnects, and forced shutdown all stop
// real work, not just the response path.
type Server struct {
	cfg Config
	// node is cfg.DB's local-store surface, nil when the backend has none
	// (the shard router).
	node    Node
	ln      net.Listener
	admit   *admitter
	metrics *metrics
	reg     *obs.Registry
	slow    *obs.SlowLog

	mu       sync.Mutex
	conns    map[*conn]struct{}
	draining bool

	// repl tracks live replication subscriptions (primary side).
	repl replRegistry

	connWG   sync.WaitGroup
	serveErr chan error
}

type conn struct {
	nc net.Conn
	// vc is the connection after its hello exchange (under Server.mu), so a
	// forced shutdown can cancel its requests.
	vc     *v2conn
	mu     sync.Mutex
	active int
}

// interruptIfIdle kicks a connection out of its idle read so a draining
// server doesn't wait on silent clients; a connection with in-flight
// requests (a pipelined connection can have many) is left to finish them.
func (c *conn) interruptIfIdle() {
	c.mu.Lock()
	if c.active == 0 {
		c.nc.SetReadDeadline(time.Unix(1, 0))
	}
	c.mu.Unlock()
}

// addActive adjusts the in-flight request count and returns the new value.
func (c *conn) addActive(d int) int {
	c.mu.Lock()
	c.active += d
	n := c.active
	c.mu.Unlock()
	return n
}

// New builds a Server; call Start (or Listen+Serve) to run it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	var reg *obs.Registry // nil without a DB, which Listen refuses
	if cfg.DB != nil {
		reg = cfg.DB.Registry()
	}
	s := &Server{
		cfg:      cfg,
		admit:    newAdmitter(cfg.MaxInFlight, cfg.MaxQueue),
		metrics:  newMetrics(reg),
		reg:      reg,
		slow:     obs.NewSlowLog(cfg.SlowLogSize, cfg.SlowOpThreshold),
		conns:    map[*conn]struct{}{},
		serveErr: make(chan error, 1),
	}
	s.node, _ = cfg.DB.(Node)
	s.register()
	return s
}

// register adds the service layer to the node's registry: admission depth,
// the slow-op log's count and threshold and its rows as sys.slowlog, and,
// over a local store, replication lag and the followers as sys.replicas.
func (s *Server) register() {
	reg := s.reg
	reg.Gauges([]string{"admission.in_flight", "admission.queued", "admission.in_flight_peak"}, func(vals []float64) {
		f, q, p := s.admit.depth()
		vals[0], vals[1], vals[2] = float64(f), float64(q), float64(p)
	})
	reg.Gauge("server.slow_ops_total", func() float64 { _, n := s.slow.Snapshot(); return float64(n) })
	reg.Gauge("server.slow_threshold_us", func() float64 { return float64(s.slow.Threshold().Microseconds()) })
	reg.Table("sys.slowlog", []string{"start", "dur_us", "op", "detail", "err"}, func() [][]model.Value {
		entries, _ := s.slow.Snapshot()
		rows := make([][]model.Value, len(entries))
		for i, e := range entries {
			rows[i] = []model.Value{model.String(e.Start.Format(time.RFC3339Nano)), model.Int(e.Dur.Microseconds()),
				model.String(e.Op), model.String(e.Detail), model.String(e.Err)}
		}
		return rows
	})
	if s.node == nil {
		return // the shard router: replicas follow its shards
	}
	reg.Gauge("repl.followers", func() float64 { return float64(s.repl.count()) })
	reg.Gauges([]string{"repl.lag_csn", "repl.lag_seconds", "repl.lag_bytes"}, func(vals []float64) {
		r := s.replStats()
		var worst uint64
		for _, f := range r.Followers {
			worst = max(worst, f.LagBytes)
		}
		vals[0], vals[1], vals[2] = float64(r.LagCSN), r.LagSeconds, float64(worst)
	})
	reg.Table("sys.replicas", []string{"remote", "sent_csn", "ack_csn", "lag_csn", "lag_bytes"}, func() [][]model.Value {
		var rows [][]model.Value
		for _, f := range s.replStats().Followers {
			rows = append(rows, []model.Value{model.String(f.Remote), model.Int(int64(f.SentCSN)), model.Int(int64(f.AckCSN)),
				model.Int(int64(f.LagCSN)), model.Int(int64(f.LagBytes))})
		}
		return rows
	})
}

// Listen binds the listener; Addr is final after it returns.
func (s *Server) Listen() error {
	if s.cfg.DB == nil {
		return errors.New("server: Config.DB is required")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Start binds and serves in the background. Serve's exit error is
// delivered to Shutdown.
func (s *Server) Start() error {
	if err := s.Listen(); err != nil {
		return err
	}
	go func() { s.serveErr <- s.Serve() }()
	return nil
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve() error {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			return err
		}
		c := &conn{nc: nc}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.metrics.connOpen()
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.handleConn(c)
		}()
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains gracefully: stop accepting, let in-flight requests
// finish and their responses flush, interrupt idle connections. If ctx
// expires first, in-flight statements are canceled (the executor unwinds
// within a morsel) and connections are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.draining = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if s.ln != nil {
		s.ln.Close()
	}
	for _, c := range conns {
		c.interruptIfIdle()
	}

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			if c.vc != nil {
				c.vc.abortAll()
			}
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// Stats snapshots the service layer's live counters.
func (s *Server) Stats() StatsReply {
	srv := s.metrics.snapshot()
	srv.InFlight, srv.Queued, srv.InFlightPeak = s.admit.depth()
	return StatsReply{Server: srv}
}

func (s *Server) handleConn(c *conn) {
	defer func() {
		c.nc.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.metrics.connClose()
	}()
	br := bufio.NewReader(c.nc)

	// Every connection opens with the client hello. Once its first byte
	// arrives the whole hello must follow within FrameTimeout: a peer that
	// dribbles a few bytes and stalls is a slow-loris and is dropped. Any
	// other opening bytes close the connection unanswered.
	if _, err := br.Peek(1); err != nil {
		return
	}
	c.nc.SetReadDeadline(time.Now().Add(s.cfg.FrameTimeout))
	magic, err := br.Peek(4)
	if err != nil || !isV2Magic(magic) {
		return
	}
	if _, err := readClientHello(br); err != nil {
		return
	}
	if err := WriteServerHello(c.nc, ProtoV2); err != nil {
		return
	}
	c.nc.SetReadDeadline(time.Time{})
	s.serveV2(c, br)
}

// isTraceStmt reports whether a query begins with the TRACE keyword — a
// cheap check so the service layer can open the trace before admission
// (the parser makes the authoritative call later).
func isTraceStmt(q string) bool {
	i := 0
	for i < len(q) && (q[i] == ' ' || q[i] == '\t' || q[i] == '\n' || q[i] == '\r') {
		i++
	}
	if len(q)-i < 6 {
		return false
	}
	tail := q[i+5]
	return strings.EqualFold(q[i:i+5], "TRACE") &&
		(tail == ' ' || tail == '\t' || tail == '\n' || tail == '\r')
}

// traceJSON renders a trace for the wire; nil traces yield "".
func traceJSON(tr *obs.Trace) string {
	if tr == nil {
		return ""
	}
	return tr.JSON()
}

// requestTimeout is a request's time to its deadline: the client's
// timeout clamped to MaxTimeout, or the server default.
func (s *Server) requestTimeout(timeoutMS int64) time.Duration {
	switch {
	case timeoutMS <= 0:
		return s.cfg.DefaultTimeout
	case timeoutMS >= s.cfg.MaxTimeout.Milliseconds():
		return s.cfg.MaxTimeout
	}
	return time.Duration(timeoutMS) * time.Millisecond
}

// acquireSlot runs one request's admission wait (admitter.acquire), bounded
// by QueueTimeout and the request's own deadline, as the admission_wait span
// under root. On success the caller owns one slot and must call
// s.admit.release().
func (s *Server) acquireSlot(ctx context.Context, root *obs.Span) error {
	admitSpan := root.Child("admission_wait")
	err := s.admit.acquire(ctx, s.cfg.QueueTimeout)
	admitSpan.End()
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		s.admit.release()
		return err
	}
	return nil
}
