// Command scdb-server serves a self-curating database over TCP.
//
// Usage:
//
//	scdb-server [flags]
//
//	-addr HOST:PORT   listen address (default 127.0.0.1:7483)
//	-dir DIR          open a durable database at DIR (default: in-memory)
//	-load NAME        preload a sample corpus: lifesci | clinical | stream
//	-parallelism N    executor and ingest-scoring worker-pool size
//	                  (0 = one per CPU)
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
//	-wal-segment-bytes N   WAL segment rotation threshold (0 = 16 MiB)
//	-checkpoint-bytes N    bytes between automatic checkpoints (0 = 64 MiB,
//	                       negative disables; \checkpoint still works); a
//	                       replica checkpoints between applied batches
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
	"flag"
	"fmt"
	"log"
	"os"

	"scdb"
	"scdb/internal/repl"
	"scdb/internal/server"
)

func main() {
	serve := server.RegisterServeFlags(flag.CommandLine, "127.0.0.1:7483")
	dir := flag.String("dir", "", "storage directory (empty = in-memory)")
	load := flag.String("load", "", "sample corpus to preload: lifesci | clinical | stream")
	parallelism := flag.Int("parallelism", 0, "executor and ingest-scoring worker-pool size (0 = one per CPU)")
	replicaOf := flag.String("replica-of", "", "primary address to replicate from (requires -dir)")
	syncFlag := flag.String("sync", "none", "WAL durability with -dir: none | group")
	erBlocking := flag.String("er-blocking", "", "er candidate generation: token | ann | both (default token)")
	walSegBytes := flag.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold (0 = default 16 MiB)")
	ckptBytes := flag.Int64("checkpoint-bytes", 0, "WAL bytes between automatic checkpoints (0 = default 64 MiB, negative disables)")
	flag.Parse()

	sync, err := scdb.ParseSyncPolicy(*syncFlag)
	if err != nil {
		fatalf("%v", err)
	}
	opts := scdb.Options{
		Dir:             *dir,
		Parallelism:     *parallelism,
		Sync:            sync,
		ERBlocking:      *erBlocking,
		WALSegmentBytes: *walSegBytes,
		CheckpointBytes: *ckptBytes,
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
		db, err = scdb.OpenSample(*load, opts)
		if err != nil {
			fatalf("open: %v", err)
		}
		defer db.Close()
	}
	if err := serve.Serve("scdb-server", db, replStats); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scdb-server: "+format+"\n", args...)
	os.Exit(1)
}
