package server

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ServeFlags are the flags every serving binary has: the listen address,
// admission control, deadlines, the slow-op log, the debug listener and
// the drain window. scdb-server and scdb-router register them on their
// flag set and call Serve once their engine is built.
type ServeFlags struct {
	cfg       Config
	grace     time.Duration
	debugAddr string
}

// RegisterServeFlags defines the serving flags on fs.
func RegisterServeFlags(fs *flag.FlagSet, defaultAddr string) *ServeFlags {
	f := &ServeFlags{}
	fs.StringVar(&f.cfg.Addr, "addr", defaultAddr, "listen address")
	fs.IntVar(&f.cfg.MaxInFlight, "max-inflight", 0, "concurrent statement limit (0 = default 16, -1 = unlimited)")
	fs.IntVar(&f.cfg.MaxQueue, "max-queue", 0, "admission wait-queue length (0 = default 64)")
	fs.DurationVar(&f.cfg.QueueTimeout, "queue-timeout", 0, "max admission wait (0 = default 1s)")
	fs.DurationVar(&f.cfg.DefaultTimeout, "timeout", 0, "default per-request deadline (0 = default 30s)")
	fs.DurationVar(&f.cfg.MaxTimeout, "max-timeout", 0, "cap on client deadlines (0 = default 5m)")
	fs.DurationVar(&f.grace, "grace", 10*time.Second, "drain window on shutdown before forcing")
	fs.DurationVar(&f.cfg.SlowOpThreshold, "slow-threshold", 0, "slow-op log threshold (0 = default 100ms, negative disables)")
	fs.IntVar(&f.cfg.SlowLogSize, "slow-log", 0, "slow-op ring capacity (0 = default 128)")
	fs.StringVar(&f.debugAddr, "debug-addr", "", "HTTP listener for /metrics, /slowlog, /debug/pprof (empty = off)")
	return f
}

// Serve fronts db with a Server configured from the flags (and the
// optional debug listener) until SIGINT or SIGTERM, then drains: in-flight
// requests get the grace window, after which statements are canceled and
// connections closed. name prefixes the log lines. replStats is
// Config.ReplStats. It returns an error only when the listener cannot
// start.
func (f *ServeFlags) Serve(name string, db Engine, replStats func() *WireReplStats) error {
	cfg := f.cfg
	cfg.DB, cfg.ReplStats = db, replStats
	srv := New(cfg)
	if err := srv.Start(); err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	log.Printf("%s listening on %s", name, srv.Addr())

	if f.debugAddr != "" {
		dbg := &http.Server{Addr: f.debugAddr, Handler: srv.DebugHandler()}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("debug listener: %v", err)
			}
		}()
		defer dbg.Close()
		log.Printf("debug listener on http://%s/debug/pprof/ (plus /metrics, /slowlog)", f.debugAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("draining (grace %s)...", f.grace)
	ctx, cancel := context.WithTimeout(context.Background(), f.grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("forced shutdown: %v", err)
	}
	log.Printf("bye")
	return nil
}
