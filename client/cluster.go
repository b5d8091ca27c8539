package client

// Cluster is a read-your-writes router over one primary and any number of
// read replicas. Writes always go to the primary; its responses carry the
// commit CSN, which becomes the session's high-water mark. Reads go to a
// replica only once that replica's applied CSN covers the mark — verified
// with a PingCSN and cached (applied CSNs only grow) — so a session never
// reads a replica state older than its own writes. A replica that is still
// catching up is polled briefly; if none freshens within FreshnessWait the
// read falls back to the primary, trading locality for latency rather
// than blocking.
//
// Only transport failures fail a read over to another node: a replica
// whose connection breaks is marked down and redialed after RetryDown.
// Server-side errors (bad SCQL, deadline, busy) are deterministic answers
// and are returned to the caller unchanged, except a replica's read_only:
// the statement was a curation statement, and it goes to the primary.

import (
	"context"
	"errors"
	"sync"
	"time"

	"scdb"
	"scdb/internal/curate"
	"scdb/internal/er"
)

// replicaNode is one follower endpoint and its cached freshness.
type replicaNode struct {
	addr string

	mu        sync.Mutex
	c         *Client   // nil when not connected
	applied   uint64    // last observed applied CSN; monotone
	downUntil time.Time // zero when healthy
}

// Cluster routes one session's calls across a primary and its replicas.
// Safe for concurrent use; concurrent reads spread round-robin across
// fresh replicas.
type Cluster struct {
	// FreshnessWait bounds how long a read waits for some replica to
	// apply the session's last write before falling back to the primary.
	FreshnessWait time.Duration
	// RetryDown is how long a failed replica stays out of rotation.
	RetryDown time.Duration

	primary  *Client
	replicas []*replicaNode

	mu   sync.Mutex
	next int // round-robin cursor
}

// DialCluster connects to the primary and registers the replica addresses.
// Replica connections are dialed lazily on first read, so a replica that is
// down at dial time costs nothing until it is needed.
func DialCluster(primary string, replicas ...string) (*Cluster, error) {
	pc, err := Dial(primary)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		FreshnessWait: 2 * time.Second,
		RetryDown:     time.Second,
		primary:       pc,
	}
	for _, addr := range replicas {
		cl.replicas = append(cl.replicas, &replicaNode{addr: addr})
	}
	return cl, nil
}

// Primary returns the primary connection for direct use (its sys.* relations, ingest
// streams, anything that must not be routed).
func (cl *Cluster) Primary() *Client { return cl.primary }

// LastCSN reports the session's read-your-writes high-water mark: the
// commit stamp of its latest write through this cluster.
func (cl *Cluster) LastCSN() uint64 { return cl.primary.LastCSN() }

// Close closes the primary and every connected replica.
func (cl *Cluster) Close() error {
	err := cl.primary.Close()
	for _, r := range cl.replicas {
		r.mu.Lock()
		if r.c != nil {
			r.c.Close()
			r.c = nil
		}
		r.mu.Unlock()
	}
	return err
}

// Ingest ships one source delivery to the primary.
func (cl *Cluster) Ingest(src scdb.Source) error { return cl.primary.Ingest(src) }

// IngestBatch streams one source delivery to the primary.
func (cl *Cluster) IngestBatch(ctx context.Context, src scdb.Source, batchSize int) (*IngestSummary, error) {
	return cl.primary.IngestBatch(ctx, src, batchSize)
}

// IngestDelivery streams one delivery in engine form to the primary.
func (cl *Cluster) IngestDelivery(ctx context.Context, d curate.Delivery, batchSize int) (*IngestSummary, error) {
	return cl.primary.IngestDelivery(ctx, d, batchSize)
}

// Query executes one read, preferring a replica that has applied this
// session's writes.
func (cl *Cluster) Query(q string) (*scdb.Rows, error) { return cl.QueryCtx(nil, q) }

// QueryCtx is Query with a deadline.
func (cl *Cluster) QueryCtx(ctx context.Context, q string) (*scdb.Rows, error) {
	rows, _, err := cl.QueryInfoCtx(ctx, q)
	return rows, err
}

// QueryInfoCtx is QueryCtx reporting how the statement was answered.
func (cl *Cluster) QueryInfoCtx(ctx context.Context, q string) (rows *scdb.Rows, info *scdb.QueryInfo, err error) {
	err = cl.read(ctx, func(c *Client) error {
		rows, info, err = c.QueryInfoCtx(ctx, q)
		return err
	})
	return rows, info, err
}

// QueryValuesCtx is QueryInfoCtx answering in engine values (see
// Client.QueryValuesCtx). The shard router reads through this method, so
// a replica-fronted shard keeps its read-your-writes guarantee under
// scatter-gather fan-out.
func (cl *Cluster) QueryValuesCtx(ctx context.Context, q string) (v Values, err error) {
	err = cl.read(ctx, func(c *Client) error {
		v, err = c.QueryValuesCtx(ctx, q)
		return err
	})
	return v, err
}

// read runs one read on a replica that has applied this session's
// writes, or on the primary.
func (cl *Cluster) read(ctx context.Context, query func(c *Client) error) error {
	hw := cl.primary.LastCSN()
	deadline := time.Now().Add(cl.FreshnessWait)
	for {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		r, alive := cl.pickFresh(hw)
		if r == nil {
			// Lagging replicas are worth a short wait; dead ones are not.
			if alive && time.Now().Before(deadline) {
				if ctx != nil {
					select {
					case <-ctx.Done():
						return ctx.Err()
					case <-time.After(5 * time.Millisecond):
					}
				} else {
					time.Sleep(5 * time.Millisecond)
				}
				continue
			}
			// No replica covers the mark in time: the primary always does.
			return query(cl.primary)
		}
		err := cl.queryReplica(r, query)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrReadOnly) {
			// A curation statement writes: the primary takes it.
			return query(cl.primary)
		}
		var se *ServerError
		if errors.As(err, &se) {
			return err // deterministic server answer; don't fail over
		}
		cl.markDown(r)
	}
}

// PingCSN reports the primary's current commit stamp.
func (cl *Cluster) PingCSN() (uint64, error) { return cl.primary.PingCSN() }

// ERDigests pulls the primary's incremental ER evidence (see
// Client.ERDigests); replicas never resolve, so the primary is the one
// authoritative source.
func (cl *Cluster) ERDigests(entsSince, matchesSince int) (er.DigestBatch, error) {
	return cl.primary.ERDigests(entsSince, matchesSince)
}

// pickFresh returns a connected replica whose applied CSN covers hw, or
// nil when none does right now; alive reports whether any replica is at
// least reachable (merely lagging), so the caller knows whether waiting
// can help. The round-robin cursor spreads load across equally fresh
// replicas.
func (cl *Cluster) pickFresh(hw uint64) (r *replicaNode, alive bool) {
	n := len(cl.replicas)
	if n == 0 {
		return nil, false
	}
	cl.mu.Lock()
	start := cl.next
	cl.next = (cl.next + 1) % n
	cl.mu.Unlock()
	for i := 0; i < n; i++ {
		cand := cl.replicas[(start+i)%n]
		fresh, up := cl.freshen(cand, hw)
		if fresh {
			return cand, true
		}
		alive = alive || up
	}
	return nil, alive
}

// freshen reports whether r has applied at least hw (fresh) and whether it
// is reachable at all (alive), dialing and pinging as needed. The cached
// applied CSN short-circuits the ping: applied stamps only grow, so a
// cache that covers hw still does. Network calls happen outside r.mu —
// the lock only snapshots and publishes state — so a slow or unresponsive
// replica never serializes the concurrent readers probing it.
func (cl *Cluster) freshen(r *replicaNode, hw uint64) (fresh, alive bool) {
	r.mu.Lock()
	if !r.downUntil.IsZero() {
		if time.Now().Before(r.downUntil) {
			r.mu.Unlock()
			return false, false
		}
		r.downUntil = time.Time{}
	}
	c := r.c
	applied := r.applied
	r.mu.Unlock()

	if c == nil {
		nc, err := Dial(r.addr)
		r.mu.Lock()
		if err != nil {
			// Another prober may have connected meanwhile; only back off
			// while the node is still unconnected.
			if r.c == nil {
				r.downUntil = time.Now().Add(cl.RetryDown)
			}
			r.mu.Unlock()
			return false, false
		}
		if r.c == nil {
			r.c = nc
		} else {
			nc.Close() // lost the dial race; keep the established connection
		}
		c = r.c
		applied = r.applied
		r.mu.Unlock()
	}
	if applied >= hw {
		return true, true
	}
	csn, err := c.PingCSN()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		// Tear down only if our connection is still the node's current one
		// (a concurrent prober may already have replaced it).
		if r.c == c {
			r.c.Close()
			r.c = nil
			r.downUntil = time.Now().Add(cl.RetryDown)
		}
		return false, false
	}
	if csn > r.applied {
		r.applied = csn
	}
	return r.applied >= hw, true
}

func (cl *Cluster) queryReplica(r *replicaNode, query func(c *Client) error) error {
	r.mu.Lock()
	c := r.c
	r.mu.Unlock()
	if c == nil {
		return errors.New("scdb client: replica not connected")
	}
	return query(c)
}

func (cl *Cluster) markDown(r *replicaNode) {
	r.mu.Lock()
	if r.c != nil {
		r.c.Close()
		r.c = nil
	}
	r.downUntil = time.Now().Add(cl.RetryDown)
	r.mu.Unlock()
}
