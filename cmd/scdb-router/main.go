// Command scdb-router fronts a hash-sharded cluster of scdb-server
// processes with a stateless scatter-gather router.
//
// Usage:
//
//	scdb-router -shards ADDR,ADDR,... [flags]
//
//	-shards A,B,C     comma-separated shard primary addresses, in shard
//	                  order (required; the order is the cluster identity —
//	                  every router for a cluster must list the same shards
//	                  in the same order)
//	-addr HOST:PORT   listen address (default 127.0.0.1:7484)
//	-ingest-batch N   chunk size of routed ingest streams (0 = client default)
//	-er-blocking MODE cross-shard er candidate generation: token | ann | both
//	                  (must match the shards' -er-blocking)
//	-er-topk N        ann neighbors per entity (0 = default 8)
//	-er-embed-dim N   feature-hashing embedding width (0 = default 64)
//	-er-threshold T   match acceptance threshold (0 = default 0.85)
//	-max-inflight N   concurrent statement limit (-1 = no admission control)
//	-max-queue N      admission wait-queue length
//	-queue-timeout D  max admission wait (e.g. 500ms)
//	-timeout D        default per-request deadline
//	-max-timeout D    cap on client-requested deadlines
//	-grace D          drain window on SIGINT/SIGTERM before forcing
//	-slow-threshold D slow-op log threshold (0 = default 100ms, -1ns disables)
//	-slow-log N       slow-op ring capacity (0 = default 128)
//	-debug-addr ADDR  optional HTTP listener: /metrics /slowlog /debug/pprof
//
// The router speaks the same wire protocol as scdb-server, so any scdb
// client connects to a router exactly as it would to a single node:
// queries scatter to every shard and the partial answers merge into
// canonically ordered rows,
// ingest streams split by entity key and route to the owning shards, and
// after each routed ingest the router exchanges ER digests between shards
// so entities split across shards still resolve. The stats op gains a
// sharding section (shard count, per-shard CSNs, cross-merge counters).
//
// Replication subscriptions are refused at the router — replicas follow
// individual shard primaries, not the cluster. The ER flags must mirror
// the shards' resolver configuration or the cross-shard exchange will
// generate different candidates than the shards do locally.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"scdb/internal/er"
	"scdb/internal/server"
	"scdb/internal/shard"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7484", "listen address")
	shards := flag.String("shards", "", "comma-separated shard primary addresses, in shard order (required)")
	ingestBatch := flag.Int("ingest-batch", 0, "routed ingest chunk size (0 = client default)")
	erBlocking := flag.String("er-blocking", "", "cross-shard er candidate generation: token | ann | both (default token)")
	erTopK := flag.Int("er-topk", 0, "ann neighbors per entity (0 = default 8)")
	erEmbedDim := flag.Int("er-embed-dim", 0, "feature-hashing embedding width (0 = default 64)")
	erThreshold := flag.Float64("er-threshold", 0, "match acceptance threshold (0 = default 0.85)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent statement limit (0 = default 16, -1 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "admission wait-queue length (0 = default 64)")
	queueTimeout := flag.Duration("queue-timeout", 0, "max admission wait (0 = default 1s)")
	timeout := flag.Duration("timeout", 0, "default per-request deadline (0 = default 30s)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on client deadlines (0 = default 5m)")
	grace := flag.Duration("grace", 10*time.Second, "drain window on shutdown before forcing")
	slowThreshold := flag.Duration("slow-threshold", 0, "slow-op log threshold (0 = default 100ms, negative disables)")
	slowLog := flag.Int("slow-log", 0, "slow-op ring capacity (0 = default 128)")
	debugAddr := flag.String("debug-addr", "", "HTTP listener for /metrics, /slowlog, /debug/pprof (empty = off)")
	flag.Parse()

	var addrs []string
	for _, a := range strings.Split(*shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fatalf("-shards is required (comma-separated shard primary addresses)")
	}

	erCfg := er.Config{
		Threshold: *erThreshold,
		TopK:      *erTopK,
		EmbedDim:  *erEmbedDim,
	}
	switch *erBlocking {
	case "", "token":
	case "ann":
		erCfg.Blocking = er.BlockingANN
	case "both":
		erCfg.Blocking = er.BlockingBoth
	default:
		fatalf("unknown -er-blocking %q (want token, ann, or both)", *erBlocking)
	}

	router, err := shard.Dial(shard.Config{IngestBatch: *ingestBatch, ER: erCfg}, addrs...)
	if err != nil {
		fatalf("%v", err)
	}
	defer router.Close()
	log.Printf("routing over %d shards: %s", router.Shards(), strings.Join(addrs, ", "))

	srv := server.New(server.Config{
		Addr:            *addr,
		DB:              router,
		MaxInFlight:     *maxInflight,
		MaxQueue:        *maxQueue,
		QueueTimeout:    *queueTimeout,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		SlowOpThreshold: *slowThreshold,
		SlowLogSize:     *slowLog,
	})
	if err := srv.Start(); err != nil {
		fatalf("listen: %v", err)
	}
	log.Printf("scdb-router listening on %s", srv.Addr())

	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: srv.DebugHandler()}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("debug listener: %v", err)
			}
		}()
		defer dbg.Close()
		log.Printf("debug listener on http://%s/debug/pprof/ (plus /metrics, /slowlog)", *debugAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("draining (grace %s)...", *grace)
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("forced shutdown: %v", err)
	}
	log.Printf("bye")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scdb-router: "+format+"\n", args...)
	os.Exit(1)
}
