// Package shard implements horizontal scale-out: a hash-sharded cluster of
// independent scdb-server processes behind a stateless scatter-gather
// router.
//
// Ownership is by entity key: record k lives on shard ShardOf(k, N), so a
// source delivery splits into N per-shard deliveries (each shipped through
// the chunked ingest_batch stream) and every shard curates only its own
// records — local schema observation, local graph, local incremental ER,
// local inference. Queries fan out to every shard as partials (aggregates
// per group, per-shard top-K) — or, when a top-level _key = 'k' conjunct
// fixes where every answering row lives, to ShardOf(k, N) alone — and the
// statement's final phase — the
// merging aggregation, HAVING, DISTINCT, ORDER BY, LIMIT — runs over the
// gathered rows in the ordinary executor. The router is an in-process
// server.Engine, so cmd/scdb-router serves the same wire protocol as a
// single node — clients cannot tell a cluster from one big server, except
// by its system relations: a sys.* relation describes the node that
// answers it, so the router answers from its own registry (sys.shards
// lists the shards) and refuses a statement that joins one to a table.
//
// The part sharding would otherwise break is entity resolution: two records
// of the same real-world entity can land on different shards, where no
// local resolver ever compares them. After every routed ingest the router
// pulls each shard's incremental ER digests (er_digests op) and feeds them
// to an er.Exchange, which runs them through a resolver of its own — the
// blocking keys, pair scorer and curation advisor the shards run locally —
// across shard boundaries. Every digest batch carries the shard's blocking
// mode, the resolver's one setting; the router builds the exchange in that
// mode and refuses a shard that runs another (SettingsError). The
// exchange's cross-merge count corrects the summed per-shard entity
// statistics, and SameRef answers whether two keys resolved to one global
// entity.
//
// Consistency: the router tracks one commit stamp per shard (the client
// connections' LastCSN high-water marks) — a vector of CSNs rather than a
// single clock. Reads go to shard primaries or, when a shard backend is a
// client.Cluster, to replicas only once they have applied that shard's
// mark, so read-your-writes holds across the whole cluster.
//
// Determinism: gathered rows enter the final phase sorted by their binary
// value encoding, so a 1-shard and an N-shard cluster return byte-identical
// answers over the same corpus. The known caveats — float SUM/AVG
// association order, block-cap truncation when an ER block splits across
// shards, ties at a pushed-down LIMIT boundary, statements refused as
// ErrNotRoutable — are documented in DESIGN.md §Cluster architecture.
package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"scdb"
	"scdb/client"
	"scdb/internal/core"
	"scdb/internal/curate"
	"scdb/internal/er"
	"scdb/internal/model"
	"scdb/internal/obs"
	"scdb/internal/query"
	"scdb/internal/server"
)

// ShardOf maps an entity key to its owning shard: FNV-1a over the key,
// mod the shard count. Stable across processes and releases — rebalancing
// by changing N moves keys, hence the resharding caveats in OPERATIONS.md.
func ShardOf(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(shards))
}

// Backend is one shard as the router sees it. *client.Client (a direct
// primary connection) and *client.Cluster (a primary plus read replicas
// with read-your-writes routing) both satisfy it. A shard answers in
// engine values, each cell decoded once from its frame: the router merges
// them as they arrive, and a cell becomes a public value only if the
// router's own caller asks for one.
type Backend interface {
	QueryValuesCtx(ctx context.Context, q string) (client.Values, error)
	IngestDelivery(ctx context.Context, d curate.Delivery, batchSize int) (*client.IngestSummary, error)
	ERDigests(entsSince, matchesSince int) (er.DigestBatch, error)
	PingCSN() (uint64, error)
	LastCSN() uint64
	Close() error
}

// Config configures a Router.
type Config struct {
	// Backends are the shards in routing order. The order is part of the
	// cluster's identity: ShardOf indexes into it, so every router in
	// front of the same cluster must list the same shards in the same
	// order.
	Backends []Backend
	// Addrs optionally labels the backends (for sys.shards); aligned with
	// Backends when set.
	Addrs []string
}

// SettingsError reports a shard whose resolver runs a different blocking
// mode than shard 0's, which the cross-shard exchange was built from: the
// exchange can generate candidates as one of them does, not both.
type SettingsError struct {
	Shard int
	Addr  string
	// Got is this shard's blocking mode, Want shard 0's.
	Got, Want er.BlockingMode
}

func (e *SettingsError) Error() string {
	return fmt.Sprintf("shard %d (%s): resolver runs blocking %v, shard 0 runs %v; start every shard with the same -er-blocking",
		e.Shard, e.Addr, e.Got, e.Want)
}

// Router fans requests out over the shards and merges the answers. It
// implements server.Engine, so cmd/scdb-router hosts it behind the
// ordinary server loop.
type Router struct {
	shards []Backend
	addrs  []string
	// all lists the shard indices in order: every shard's targets, and
	// all[s:s+1] a keyed statement's.
	all []int

	// mu serializes routed ingests, the ER exchange they feed, and the
	// per-shard digest watermarks. blocking is the mode shard 0 reported
	// when the exchange was built.
	mu          sync.Mutex
	exch        *er.Exchange
	blocking    er.BlockingMode
	entsMark    []int
	matchesMark []int
	// lastEntities caches each shard's entity count from the latest poll
	// (display only; see ShardingStats).
	lastEntities []int
	// reg is the router's self-description: FROM sys.<name> through the
	// router reads it, not the shards'.
	reg *obs.Registry
	// routes holds each statement shape's decomposition (scatter.go).
	routes *query.ShapeCache[*route]

	scatterQueries atomic.Uint64
	keyedQueries   atomic.Uint64
	partialRows    atomic.Uint64
	routedRows     atomic.Uint64
	exchangeRounds atomic.Uint64
	digestsPulled  atomic.Uint64
}

// New builds a router over the given backends and runs one exchange round:
// it learns the shards' blocking mode (a disagreement fails with a
// *SettingsError) and catches up on whatever the shards already hold.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one backend")
	}
	addrs := cfg.Addrs
	if len(addrs) != len(cfg.Backends) {
		addrs = make([]string, len(cfg.Backends))
		for i := range addrs {
			addrs[i] = fmt.Sprintf("shard-%d", i)
		}
	}
	r := &Router{
		shards:       cfg.Backends,
		addrs:        addrs,
		all:          make([]int, len(cfg.Backends)),
		entsMark:     make([]int, len(cfg.Backends)),
		matchesMark:  make([]int, len(cfg.Backends)),
		lastEntities: make([]int, len(cfg.Backends)),
		reg:          obs.NewRegistry(),
		routes:       query.NewShapeCache[*route](query.ShapeCacheSize),
	}
	for i := range r.all {
		r.all[i] = i
	}
	if err := r.exchangeLocked(); err != nil { // no one else holds r yet
		return nil, err
	}
	r.register()
	return r, nil
}

// register fills the router's registry: the cluster's Stats, summed over
// the shards, the routing counters, and the shards as sys.shards.
func (r *Router) register() {
	core.RegisterStats(r.reg, r.Stats)
	r.reg.Gauge("router.shards", func() float64 { return float64(len(r.shards)) })
	for name, n := range map[string]*atomic.Uint64{
		"shard.scatter_queries_total":    &r.scatterQueries,
		"shard.keyed_queries_total":      &r.keyedQueries,
		"shard.partial_rows_total":       &r.partialRows,
		"shard.ingest_routed_rows_total": &r.routedRows,
		"shard.exchange_rounds_total":    &r.exchangeRounds,
		"shard.digests_exchanged":        &r.digestsPulled,
	} {
		r.reg.Gauge(name, func() float64 { return float64(n.Load()) })
	}
	r.reg.Gauges([]string{"shard.plan_cache_hits_total", "shard.plan_cache_misses_total"}, func(vals []float64) {
		st := r.routes.Stats()
		vals[0], vals[1] = float64(st.Hits), float64(st.Misses)
	})
	r.reg.Gauge("shard.cross_comparisons", func() float64 { return float64(r.ExchangeStats().Comparisons) })
	r.reg.Gauge("shard.cross_merges", func() float64 { return float64(r.ExchangeStats().CrossMerges) })
	r.reg.Table("sys.shards", []string{"shard", "addr", "last_csn", "entities"}, func() [][]model.Value {
		r.poll() // fresh entity counts
		var rows [][]model.Value
		for i, n := range r.ShardingStats().Nodes {
			rows = append(rows, []model.Value{model.Int(int64(i)), model.String(n.Addr), model.Int(int64(n.LastCSN)), model.Int(int64(n.Entities))})
		}
		return rows
	})
}

// Registry is the router's self-description, which FROM sys.<name> reads;
// a server fronting the router registers its own instruments into it.
func (r *Router) Registry() *obs.Registry { return r.reg }

// Dial connects to each shard address and builds a router over the
// connections.
func Dial(cfg Config, addrs ...string) (r *Router, err error) {
	backends := make([]Backend, 0, len(addrs))
	defer func() {
		if err != nil {
			for _, b := range backends {
				b.Close()
			}
		}
	}()
	for _, a := range addrs {
		c, err := client.Dial(a)
		if err != nil {
			return nil, fmt.Errorf("shard: dial %s: %w", a, err)
		}
		backends = append(backends, c)
	}
	cfg.Backends = backends
	cfg.Addrs = addrs
	return New(cfg)
}

// Close closes every backend connection.
func (r *Router) Close() error {
	var first error
	for _, b := range r.shards {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shards reports the cluster width.
func (r *Router) Shards() int { return len(r.shards) }

// CSN is the router's commit stamp: the sum of the per-shard high-water
// marks. Each addend is monotone, so the sum is too — what ping-based
// freshness checks rely on.
func (r *Router) CSN() uint64 {
	var sum uint64
	for _, b := range r.shards {
		sum += b.LastCSN()
	}
	return sum
}

// IngestDelivery splits one delivery by entity key and streams each part
// to its shard through the chunked ingest path, then runs one cross-shard
// ER exchange round over the shards' new digests. The delivery comes as
// the router's server decoded it off the wire, in engine form, and each
// part goes out as the frames a public IngestBatch of it would write
// (client.IngestDelivery): no entity becomes a public record on the way.
//
// Every shard receives a delivery even when its split is empty: an empty
// delivery still registers the source and creates its table, so scatter
// queries never hit "unknown table" on a shard that happens to own none of
// the source's records. Links route with their FromKey; a link whose ToKey
// hashes to a different shard is rejected (the relation layer is
// shard-local), as are unstructured Texts (extraction cannot be routed by
// key) — deliver those to a shard directly if shard-local edges are
// acceptable.
//
// An entity the per-entity rule refuses (curate.CheckEntity: a keyless
// entity, or an attribute named _key or _types) refuses the whole delivery
// with scdb.ErrInvalidDelivery before any shard receives a part, so no
// shard is left half-written, and so does a link whose literal is an entity
// ref: an entity id belongs to the node that assigned it, so no shard can
// resolve one. A link to a key no shard has seen needs the
// owning shard's graph to tell, so that refusal stays the shard's, and the
// shards that accepted their parts keep them.
func (r *Router) IngestDelivery(ctx context.Context, d curate.Delivery) error {
	n := len(r.shards)
	parts := make([]curate.Delivery, n)
	for i := range parts {
		parts[i].Source = d.Source
	}
	if len(d.Texts) > 0 {
		return fmt.Errorf("shard: texts cannot be routed by entity key; deliver them to one shard directly")
	}
	for _, a := range d.Entities {
		if err := curate.CheckEntity(d.Source, a.Key, a.Attrs); err != nil {
			return err
		}
		s := ShardOf(a.Key, n)
		parts[s].Entities = append(parts[s].Entities, a)
	}
	for _, l := range d.Links {
		s := ShardOf(l.FromKey, n)
		if l.ToKey != "" && ShardOf(l.ToKey, n) != s {
			return fmt.Errorf("shard: link %s-[%s]->%s crosses shards (entities hash to %d and %d); the relation layer is shard-local",
				l.FromKey, l.Predicate, l.ToKey, s, ShardOf(l.ToKey, n))
		}
		if id, ok := l.Literal.AsRef(); ok {
			return fmt.Errorf("%w: link %s-[%s] names entity %d, an id local to one node; link by key instead",
				curate.ErrInvalidDelivery, l.FromKey, l.Predicate, id)
		}
		parts[s].Links = append(parts[s].Links, l)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.shards[i].IngestDelivery(ctx, parts[i], 0) // client.DefaultIngestBatch rows a chunk
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d (%s): %w", i, r.addrs[i], err)
		}
	}
	r.routedRows.Add(uint64(len(d.Entities)))
	return r.exchangeLocked()
}

// exchangeLocked pulls each shard's digests past the router's watermarks
// and folds them into the exchange, which the first batch's blocking mode
// builds. Caller holds r.mu.
func (r *Router) exchangeLocked() error {
	for i, b := range r.shards {
		batch, err := b.ERDigests(r.entsMark[i], r.matchesMark[i])
		if err != nil {
			return fmt.Errorf("shard %d (%s): er digests: %w", i, r.addrs[i], err)
		}
		if r.exch == nil {
			r.blocking, r.exch = batch.Settings.Blocking, er.NewExchange(batch.Settings)
		} else if got := batch.Settings.Blocking; got != r.blocking {
			return &SettingsError{Shard: i, Addr: r.addrs[i], Got: got, Want: r.blocking}
		}
		r.exch.AddBatch(i, batch)
		r.entsMark[i], r.matchesMark[i] = batch.Ents, batch.Matches
		r.digestsPulled.Add(uint64(len(batch.Digests)))
	}
	r.exchangeRounds.Add(1)
	return nil
}

// SameRef reports whether two entity keys — wherever they landed — resolved
// to one global entity, through local merges, the cross-shard exchange, or
// both.
func (r *Router) SameRef(a, b er.RefKey) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.exch.SameRef(a, b)
}

// ExchangeStats snapshots the cross-shard ER exchange counters.
func (r *Router) ExchangeStats() er.ExchangeStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.exch.Stats()
}

// Stats aggregates the shards' engine snapshots into one cluster view.
// Additive counts (entities, edges, merges, claims, inference results, ER
// work) sum; Entities is then corrected by the exchange's cross-merge
// count — entities joined across shards are one entity, counted once — and
// the same count adds to Merges, as the exchange's accepted pairs add to
// ER.Matches. Tables and Concepts take the max (every shard observes every
// source, so the counts coincide; max also reads correctly if a shard is
// briefly behind). CacheHitRate averages. A shard that fails the read
// contributes nothing to this best-effort snapshot.
func (r *Router) Stats() scdb.Stats {
	var out scdb.Stats
	var hit float64
	polled := r.poll()
	for _, s := range polled {
		out.Entities += s.Entities
		out.Edges += s.Edges
		out.InferredTypes += s.InferredTypes
		out.Witnesses += s.Witnesses
		out.Inconsistencies += s.Inconsistencies
		out.Merges += s.Merges
		out.Claims += s.Claims
		out.ER.Comparisons += s.ER.Comparisons
		out.ER.Candidates += s.ER.Candidates
		out.ER.ANNProbes += s.ER.ANNProbes
		out.ER.Blocks += s.ER.Blocks
		out.ER.BlockSkips += s.ER.BlockSkips
		out.ER.Matches += s.ER.Matches
		out.Tables = max(out.Tables, s.Tables)
		out.Concepts = max(out.Concepts, s.Concepts)
		hit += s.CacheHitRate
	}
	if len(polled) > 0 {
		out.CacheHitRate = hit / float64(len(polled))
	}
	xs := r.ExchangeStats()
	out.Entities -= xs.CrossMerges
	out.Merges += xs.CrossMerges
	out.ER.Comparisons += xs.Comparisons
	out.ER.Candidates += xs.Candidates
	out.ER.ANNProbes += xs.ANNProbes
	out.ER.BlockSkips += xs.BlockSkips
	out.ER.Matches += xs.Accepted
	return out
}

// poll reads each shard's engine snapshot off its sys.metrics, one
// statement per shard, and keeps each entity count for ShardingStats. A
// shard that fails the read is left out.
func (r *Router) poll() []scdb.Stats {
	var out []scdb.Stats
	for i, b := range r.shards {
		res, err := b.QueryValuesCtx(context.Background(), "SELECT name, value FROM sys.metrics")
		if err != nil {
			continue
		}
		metrics := make(map[string]float64, len(res.Rows))
		for _, row := range res.Rows {
			name, _ := row[0].AsString()
			metrics[name], _ = row[1].AsFloat()
		}
		s := core.StatsFrom(metrics)
		out = append(out, s)
		r.mu.Lock()
		r.lastEntities[i] = s.Entities
		r.mu.Unlock()
	}
	return out
}

// ShardingStats is Server.Stats' sharding section and the source of the
// router.* and shard.* gauges and sys.shards.
func (r *Router) ShardingStats() *server.WireShardingStats {
	xs := r.ExchangeStats()
	ws := &server.WireShardingStats{
		Shards:           len(r.shards),
		ScatterQueries:   r.scatterQueries.Load(),
		PartialRows:      r.partialRows.Load(),
		RoutedRows:       r.routedRows.Load(),
		ExchangeRounds:   r.exchangeRounds.Load(),
		Digests:          r.digestsPulled.Load(),
		CrossComparisons: uint64(xs.Comparisons),
		CrossMerges:      uint64(xs.CrossMerges),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, b := range r.shards {
		ws.Nodes = append(ws.Nodes, server.WireShardNode{
			Addr:     r.addrs[i],
			LastCSN:  b.LastCSN(),
			Entities: r.lastEntities[i],
		})
	}
	return ws
}
