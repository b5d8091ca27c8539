// Command scdb-server serves a self-curating database over TCP.
//
// Usage:
//
//	scdb-server [flags]
//
//	-addr HOST:PORT   listen address (default 127.0.0.1:7483)
//	-dir DIR          open a durable database at DIR (default: in-memory)
//	-load NAME        preload a sample corpus: lifesci | clinical | stream
//	-parallelism N    executor worker-pool size (0 = one per CPU)
//	-max-inflight N   concurrent statement limit (-1 = no admission control)
//	-max-queue N      admission wait-queue length
//	-queue-timeout D  max admission wait (e.g. 500ms)
//	-timeout D        default per-request deadline
//	-max-timeout D    cap on client-requested deadlines
//	-grace D          drain window on SIGINT/SIGTERM before forcing
//	-replica-of ADDR  run as a read replica of the primary at ADDR
//	                  (requires -dir; the node serves reads and refuses
//	                  writes with the read_only code)
//	-er-blocking MODE er candidate generation: token | ann | both
//	-er-topk N        ann neighbors per entity (0 = default 8)
//	-er-embed-dim N   feature-hashing embedding width (0 = default 64)
//	-wal-segment-bytes N   WAL segment rotation threshold (0 = 16 MiB)
//	-checkpoint-bytes N    bytes between automatic checkpoints (0 = 64 MiB,
//	                       negative disables; \checkpoint still works)
//	-slow-threshold D slow-op log threshold (0 = default 100ms, -1ns disables)
//	-slow-log N       slow-op ring capacity (0 = default 128)
//	-debug-addr ADDR  optional HTTP listener: /metrics /slowlog /debug/pprof
//
// The server speaks one wire protocol: binary framing with columnar
// result streaming and request pipelining. A client opens with a hello;
// a connection that opens with anything else is closed. Use the
// scdb/client package or `scdb -connect HOST:PORT`. On SIGINT/SIGTERM it
// drains: in-flight requests finish (up to -grace), then remaining
// statements are canceled mid-morsel and connections closed.
//
// The -debug-addr listener has no authentication and the slow-op log
// exposes statement text; bind it to localhost or a management network.
package main

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

	"scdb"
	"scdb/internal/repl"
	"scdb/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7483", "listen address")
	dir := flag.String("dir", "", "storage directory (empty = in-memory)")
	load := flag.String("load", "", "sample corpus to preload: lifesci | clinical | stream")
	parallelism := flag.Int("parallelism", 0, "executor worker-pool size (0 = one per CPU)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent statement limit (0 = default 16, -1 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "admission wait-queue length (0 = default 64)")
	queueTimeout := flag.Duration("queue-timeout", 0, "max admission wait (0 = default 1s)")
	timeout := flag.Duration("timeout", 0, "default per-request deadline (0 = default 30s)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on client deadlines (0 = default 5m)")
	grace := flag.Duration("grace", 10*time.Second, "drain window on shutdown before forcing")
	replicaOf := flag.String("replica-of", "", "primary address to replicate from (requires -dir)")
	syncFlag := flag.String("sync", "none", "WAL durability with -dir: none | group | always")
	ingestBatch := flag.Int("ingest-batch", 0, "ingest write-batch size (0 = default 1024, 1 = per-record)")
	ingestPar := flag.Int("ingest-parallelism", 0, "ingest decode worker-pool size (0 = one per CPU)")
	erBlocking := flag.String("er-blocking", "", "er candidate generation: token | ann | both (default token)")
	erTopK := flag.Int("er-topk", 0, "ann neighbors per entity (0 = default 8)")
	erEmbedDim := flag.Int("er-embed-dim", 0, "feature-hashing embedding width (0 = default 64)")
	walSegBytes := flag.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold (0 = default 16 MiB)")
	ckptBytes := flag.Int64("checkpoint-bytes", 0, "WAL bytes between automatic checkpoints (0 = default 64 MiB, negative disables)")
	slowThreshold := flag.Duration("slow-threshold", 0, "slow-op log threshold (0 = default 100ms, negative disables)")
	slowLog := flag.Int("slow-log", 0, "slow-op ring capacity (0 = default 128)")
	debugAddr := flag.String("debug-addr", "", "HTTP listener for /metrics, /slowlog, /debug/pprof (empty = off)")
	flag.Parse()

	sync, err := scdb.ParseSyncPolicy(*syncFlag)
	if err != nil {
		fatalf("%v", err)
	}
	opts := scdb.Options{
		Dir:               *dir,
		Parallelism:       *parallelism,
		Sync:              sync,
		IngestBatchSize:   *ingestBatch,
		IngestParallelism: *ingestPar,
		ERBlocking:        *erBlocking,
		ERTopK:            *erTopK,
		EREmbedDim:        *erEmbedDim,
		WALSegmentBytes:   *walSegBytes,
		CheckpointBytes:   *ckptBytes,
	}
	switch *load {
	case "lifesci", "clinical":
		opts.Axioms = scdb.LifeSciAxioms + scdb.PopulationAxioms
		opts.LinkRules = scdb.LifeSciLinkRules()
		opts.Patterns = scdb.LifeSciPatterns()
	case "stream":
		opts.Axioms = "concept Device"
	case "":
	default:
		fatalf("unknown sample %q (want lifesci, clinical, or stream)", *load)
	}
	var db *scdb.DB
	var replStats func() *server.WireReplStats
	if *replicaOf != "" {
		if *dir == "" {
			fatalf("-replica-of requires -dir (the replica keeps its own durable copy)")
		}
		if *load != "" {
			fatalf("-replica-of and -load are mutually exclusive (a replica's data comes from its primary)")
		}
		f, err := repl.Start(repl.Config{
			PrimaryAddr: *replicaOf,
			Dir:         *dir,
			Opts:        opts,
			Logf:        log.Printf,
		})
		if err != nil {
			fatalf("replica: %v", err)
		}
		defer f.Close()
		db = f.DB()
		replStats = f.Stats
		log.Printf("replicating from %s (applied csn %d)", *replicaOf, db.CSN())
	} else {
		db, err = scdb.Open(opts)
		if err != nil {
			fatalf("open: %v", err)
		}
		defer db.Close()
	}
	switch *load {
	case "lifesci":
		for _, src := range scdb.LifeSciSample(1, 100, 60, 40) {
			must(db.Ingest(src))
		}
	case "clinical":
		for _, src := range scdb.LifeSciSample(1, 0, 0, 0) {
			must(db.Ingest(src))
		}
		for _, src := range scdb.ClinicalTrialSources(1, 20) {
			must(db.Ingest(src))
		}
		for _, c := range scdb.ClinicalClaims() {
			must(db.AddClaim(c))
		}
		db.RefreshRichness()
	case "stream":
		for _, src := range scdb.StreamSample(1, 100) {
			must(db.Ingest(src))
		}
	}

	srv := server.New(server.Config{
		Addr:            *addr,
		DB:              db,
		MaxInFlight:     *maxInflight,
		MaxQueue:        *maxQueue,
		QueueTimeout:    *queueTimeout,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		SlowOpThreshold: *slowThreshold,
		SlowLogSize:     *slowLog,
		ReplStats:       replStats,
	})
	if err := srv.Start(); err != nil {
		fatalf("listen: %v", err)
	}
	log.Printf("scdb-server listening on %s", srv.Addr())

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

func must(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scdb-server: "+format+"\n", args...)
	os.Exit(1)
}
