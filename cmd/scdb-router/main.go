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
// so entities split across shards still resolve. The router describes
// itself: its sys.metrics adds the routing counters (router.*, shard.*)
// and sys.shards lists the shards with their CSNs.
//
// Replication subscriptions are refused at the router — replicas follow
// individual shard primaries, not the cluster. The router has no resolver
// flags: it asks its shards for their settings when it starts and builds
// the cross-shard exchange from the answer, so the exchange generates the
// candidates the shards generate locally. Shards that disagree with each
// other are a start-up error naming the shard and the setting.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"scdb/internal/server"
	"scdb/internal/shard"
)

func main() {
	serve := server.RegisterServeFlags(flag.CommandLine, "127.0.0.1:7484")
	shards := flag.String("shards", "", "comma-separated shard primary addresses, in shard order (required)")
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

	router, err := shard.Dial(shard.Config{}, addrs...)
	if err != nil {
		fatalf("%v", err)
	}
	defer router.Close()
	log.Printf("routing over %d shards: %s", router.Shards(), strings.Join(addrs, ", "))

	if err := serve.Serve("scdb-router", router, nil); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scdb-router: "+format+"\n", args...)
	os.Exit(1)
}
