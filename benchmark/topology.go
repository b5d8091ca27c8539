package main

// The three topologies, all hosted in this process over real loopback TCP,
// as the repository's own tests host them: the load generator, the
// server.New instances, and a shard.Dial router fronted by a second
// server.New. Engines and servers run on their defaults.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"scdb"
	"scdb/client"
	"scdb/internal/server"
	"scdb/internal/shard"
)

const (
	topoEmbedded = "embedded"
	topoServer   = "server"
	topoRouter   = "router"
	routerShards = 3
)

// topology is one running system under test.
type topology struct {
	kind string
	// dbs are the engines: one, or one per shard. The harness keeps the
	// handles because the servers are in-process; it reads their public
	// counters and never routes load through them except on "embedded".
	dbs     []*scdb.DB
	dirs    []string
	servers []*server.Server // shard servers, or the single server
	router  *shard.Router
	front   *server.Server // what clients dial: the server, or the router's
	clients []*client.Client
}

// startTopology opens the engines and starts the servers. Every
// server-hosted store is durable under dir with group commit; the embedded
// engine is in-memory.
func startTopology(kind, dir string) (t *topology, err error) {
	t = &topology{kind: kind}
	defer func() {
		if err != nil {
			t.close()
			t = nil
		}
	}()
	engines := 1
	if kind == topoRouter {
		engines = routerShards
	}
	for i := 0; i < engines; i++ {
		opts := scdb.Options{}
		if kind != topoEmbedded {
			opts.Dir = filepath.Join(dir, fmt.Sprintf("store%d", i))
			opts.Sync = scdb.SyncGroup
			if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
				return t, err
			}
			t.dirs = append(t.dirs, opts.Dir)
		}
		db, err := scdb.Open(opts)
		if err != nil {
			return t, fmt.Errorf("open engine %d: %w", i, err)
		}
		t.dbs = append(t.dbs, db)
		if kind == topoEmbedded {
			return t, nil
		}
		srv := server.New(server.Config{Addr: "127.0.0.1:0", DB: db})
		if err := srv.Start(); err != nil {
			return t, fmt.Errorf("start server %d: %w", i, err)
		}
		t.servers = append(t.servers, srv)
	}
	t.front = t.servers[0]
	if kind == topoRouter {
		addrs := make([]string, len(t.servers))
		for i, s := range t.servers {
			addrs[i] = s.Addr().String()
		}
		if t.router, err = shard.Dial(shard.Config{}, addrs...); err != nil {
			return t, err
		}
		t.front = server.New(server.Config{Addr: "127.0.0.1:0", DB: t.router})
		if err := t.front.Start(); err != nil {
			return t, fmt.Errorf("start router server: %w", err)
		}
	}
	return t, nil
}

// dial opens one auto-negotiated client connection to addr and remembers
// it for close.
func (t *topology) dial(addr string) (*client.Client, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	t.clients = append(t.clients, c)
	return c, nil
}

func (t *topology) frontAddr() string { return t.front.Addr().String() }

// querier is what a reader drives: the facade, or a client connection.
type querier interface {
	QueryInfoCtx(ctx context.Context, q string) (*scdb.Rows, *scdb.QueryInfo, error)
}

// reader returns a fresh querier: the engine itself when embedded, a new
// connection to the front server otherwise.
func (t *topology) reader() (querier, error) {
	if t.kind == topoEmbedded {
		return t.dbs[0], nil
	}
	return t.dial(t.frontAddr())
}

// release closes a querier that reader returned, once its user is done.
func (t *topology) release(q querier) {
	for i, c := range t.clients {
		if querier(c) == q {
			c.Close()
			t.clients = append(t.clients[:i], t.clients[i+1:]...)
			return
		}
	}
}

// load delivers one source through the topology's front door and waits
// for the curated ack.
func (t *topology) load(ctx context.Context, src scdb.Source) error {
	if t.kind == topoEmbedded {
		return t.dbs[0].IngestCtx(ctx, src)
	}
	c, err := t.dial(t.frontAddr())
	if err != nil {
		return err
	}
	_, err = c.IngestBatch(ctx, src, 0)
	return err
}

// close stops everything in dependency order and waits for it: clients,
// the front server, the router's shard connections, the shard servers, the
// engines.
func (t *topology) close() error {
	var errs []error
	for _, c := range t.clients {
		c.Close()
	}
	shutdown := func(s *server.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	if t.router != nil {
		if t.front != nil && t.front != t.servers[0] {
			shutdown(t.front)
		}
		t.router.Close()
	}
	for _, s := range t.servers {
		shutdown(s)
	}
	for _, db := range t.dbs {
		if err := db.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, d := range t.dirs {
		if err := os.RemoveAll(d); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// indexSignature names the secondary indexes every engine holds, without
// their hit counters: warm-up waits for this to stop changing.
func (t *topology) indexSignature() string {
	var sig string
	for i, db := range t.dbs {
		for _, ix := range db.IndexStats() {
			sig += fmt.Sprintf("%d:%s.%s/%s/%v;", i, ix.Table, ix.Attr, ix.Kind, ix.Auto)
		}
	}
	return sig
}

// counters is a snapshot of every public counter the per-layer metrics
// are deltas of, summed over the engines.
type counters struct {
	stats     scdb.Stats // through the router when there is one
	wal       scdb.WALStats
	plan      scdb.PlanCacheStats
	indexHits uint64
	autoIndex int
	srv       server.ServerStats // the front server's
	sharding  server.WireShardingStats
}

func (t *topology) counters() counters {
	var c counters
	for _, db := range t.dbs {
		w := db.WALStats()
		c.wal.Bytes += w.Bytes
		c.wal.Fsyncs += w.Fsyncs
		c.wal.Commits += w.Commits
		c.wal.CommitWait += w.CommitWait
		c.wal.Checkpoints += w.Checkpoints
		c.wal.CheckpointTime += w.CheckpointTime
		p := db.PlanCacheStats()
		c.plan.Hits += p.Hits
		c.plan.Misses += p.Misses
		for _, ix := range db.IndexStats() {
			c.indexHits += ix.Hits
			if ix.Auto {
				c.autoIndex++
			}
		}
	}
	if t.router != nil {
		c.stats = t.router.Stats()
		c.sharding = *t.router.ShardingStats()
	} else {
		c.stats = t.dbs[0].Stats()
	}
	if t.front != nil {
		c.srv = t.front.Stats().Server
	}
	return c
}
