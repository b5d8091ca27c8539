// Package repl implements the read-replica follower: a process-local
// component that subscribes to a primary scdb-server's WAL stream over the
// v2 wire protocol, replays shipped frames into its own durable store, and
// keeps a read-only engine continuously queryable at the applied watermark.
//
// The follower's commit clock IS the applied watermark — storage.ApplyRepl
// installs every frame of a batch before publishing the batch's watermark —
// so every read the follower serves is CSN-consistent with some committed
// prefix of the primary's history, with no query-path changes at all.
// Instance-layer reads (SELECT) are fresh the moment a batch lands; the
// derived relation/semantic layers (graph, ontology, reasoner) are rebuilt
// on a cadence by RefreshDerived.
//
// Bootstrap: the follower opens its directory, subscribes with its
// recovered CSN, and — if the primary answers with a snapshot stream
// because the needed WAL frames are checkpointed away — wipes the
// directory, writes the shipped snapshot, and reopens from it. A live
// follower whose stream fails resubscribes with its applied CSN; if that
// resubscription would need a snapshot again the follower reports a fatal
// error instead of silently rewinding (restart it to re-bootstrap).
package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"scdb"
	"scdb/internal/server"
	"scdb/internal/storage"
)

// Config configures a Follower. PrimaryAddr and Opts.Dir are required.
type Config struct {
	// PrimaryAddr is the primary scdb-server's wire address.
	PrimaryAddr string
	// Opts are the engine options for the local read-only database. Opts.Dir
	// is the follower's own durable directory, wiped and rebuilt when a
	// snapshot bootstrap is needed. ReadOnly is forced on. CheckpointBytes
	// sets the follower's own checkpoint cadence, which it runs between
	// applied batches: the background checkpointer's barrier would
	// deadlock against replication apply, which bypasses the write
	// tracker.
	Opts scdb.Options
	// RefreshEvery is the derived-layer rebuild cadence (default 2s;
	// negative disables automatic refresh).
	RefreshEvery time.Duration
	// Logf, when set, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

const (
	// dialTimeout bounds each connection attempt to the primary.
	dialTimeout = 5 * time.Second
	// redialWait is the backoff between reconnect attempts.
	redialWait = 500 * time.Millisecond
)

// checkpointEvery is the follower's checkpoint cadence in log bytes: the
// storage default for zero, none (0) for a negative setting.
func checkpointEvery(opts scdb.Options) uint64 {
	switch {
	case opts.CheckpointBytes < 0:
		return 0
	case opts.CheckpointBytes == 0:
		return storage.DefaultCheckpointBytes
	}
	return uint64(opts.CheckpointBytes)
}

// Follower is a running replication subscriber plus its local read-only
// database. Serve its DB() behind a server.Server to offer follower reads.
type Follower struct {
	cfg Config
	db  *scdb.DB

	applied   atomic.Uint64 // local applied watermark (== DB().CSN())
	primaryW  atomic.Uint64 // last watermark received from the primary
	lastBatch atomic.Int64  // unixnano of the last received batch
	connected atomic.Bool

	mu     sync.Mutex
	conn   net.Conn // live subscription connection, nil between dials
	closed bool
	fatal  error

	done chan struct{}
}

// Start bootstraps the follower — opening (or snapshot-initializing) the
// local database and establishing the subscription — and launches the
// replay loop. It returns once the local database is open and subscribed;
// catching up proceeds in the background.
func Start(cfg Config) (*Follower, error) {
	if cfg.RefreshEvery == 0 {
		cfg.RefreshEvery = 2 * time.Second
	}
	if cfg.PrimaryAddr == "" || cfg.Opts.Dir == "" {
		return nil, errors.New("repl: Config.PrimaryAddr and Config.Opts.Dir are required")
	}
	f := &Follower{cfg: cfg, done: make(chan struct{})}

	db, err := f.openDB()
	if err != nil {
		return nil, err
	}
	f.db = db
	f.applied.Store(db.CSN())

	conn, br, err := f.dialSubscribe()
	if err != nil {
		db.Close()
		return nil, err
	}

	// The first frame reveals the primary's decision: an entries batch
	// streams from the log, a snapshot chunk means our CSN is below the
	// checkpoint horizon and the directory must be rebuilt from scratch.
	first, err := f.readBatch(br)
	if err != nil {
		conn.Close()
		db.Close()
		return nil, fmt.Errorf("repl: subscribe: %w", err)
	}
	var pending *server.V2ReplBatch
	switch first.Kind {
	case server.V2ReplKindEntries:
		pending = first
	case server.V2ReplKindSnapChunk, server.V2ReplKindSnapDone:
		if err := db.Close(); err != nil {
			conn.Close()
			return nil, err
		}
		if err := f.receiveSnapshot(br, first); err != nil {
			conn.Close()
			return nil, fmt.Errorf("repl: snapshot bootstrap: %w", err)
		}
		if db, err = f.openDB(); err != nil {
			conn.Close()
			return nil, err
		}
		f.db = db
		f.applied.Store(db.CSN())
		f.logf("repl: bootstrapped from snapshot at csn %d", db.CSN())
	}

	f.setConn(conn)
	go f.run(conn, br, pending)
	return f, nil
}

// DB returns the follower's local read-only database.
func (f *Follower) DB() *scdb.DB { return f.db }

// Err returns the sticky fatal error, if the replay loop has stopped for
// good (e.g. the primary checkpointed past a live follower's position).
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fatal
}

// Close stops the subscription and closes the local database.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		<-f.done
		return nil
	}
	f.closed = true
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	<-f.done
	return f.db.Close()
}

// Stats reports the follower's replication position for the server's
// repl.* gauges: the distance from its applied watermark to the last
// primary watermark seen, and how stale that sighting is.
func (f *Follower) Stats() *server.WireReplStats {
	applied := f.applied.Load()
	pw := f.primaryW.Load()
	var lag uint64
	if pw > applied {
		lag = pw - applied
	}
	var lagSec float64
	if lb := f.lastBatch.Load(); lb > 0 && (lag > 0 || !f.connected.Load()) {
		lagSec = time.Since(time.Unix(0, lb)).Seconds()
	}
	return &server.WireReplStats{LagCSN: lag, LagSeconds: lagSec}
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

func (f *Follower) openDB() (*scdb.DB, error) {
	opts := f.cfg.Opts
	opts.ReadOnly = true
	opts.CheckpointBytes = -1 // no background checkpointer: run checkpoints between batches
	return scdb.Open(opts)
}

func (f *Follower) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

func (f *Follower) setConn(c net.Conn) {
	f.mu.Lock()
	f.conn = c
	f.mu.Unlock()
	f.connected.Store(c != nil)
}

func (f *Follower) setFatal(err error) {
	f.mu.Lock()
	if f.fatal == nil {
		f.fatal = err
	}
	f.mu.Unlock()
	f.logf("repl: fatal: %v", err)
}

// dialSubscribe opens a v2 connection and sends the subscription request
// with the current applied CSN.
func (f *Follower) dialSubscribe() (net.Conn, *bufio.Reader, error) {
	conn, err := net.DialTimeout("tcp", f.cfg.PrimaryAddr, dialTimeout)
	if err != nil {
		return nil, nil, err
	}
	conn.SetDeadline(time.Now().Add(dialTimeout))
	if err := server.WriteClientHello(conn); err != nil {
		conn.Close()
		return nil, nil, err
	}
	br := bufio.NewReader(conn)
	if _, err := server.ReadServerHello(br); err != nil {
		conn.Close()
		return nil, nil, err
	}
	e := server.GetV2Enc()
	frame := server.EncodeV2ReplSubscribe(e, 1, f.applied.Load())
	_, err = conn.Write(frame)
	e.Release()
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	conn.SetDeadline(time.Time{})
	return conn, br, nil
}

// readBatch reads the next stream frame and decodes it. An error frame
// from the server is surfaced as an error carrying its code and message.
func (f *Follower) readBatch(br *bufio.Reader) (*server.V2ReplBatch, error) {
	fr, err := server.ReadV2Frame(br, server.DefaultMaxFrame)
	if err != nil {
		return nil, err
	}
	switch fr.Op {
	case server.V2OpReplFrames:
		return server.DecodeV2ReplBatch(fr.Payload)
	case server.V2OpError:
		code, msg, derr := server.DecodeV2Error(fr.Payload)
		if derr != nil {
			return nil, derr
		}
		return nil, fmt.Errorf("repl: primary refused stream: %s: %s", code, msg)
	}
	return nil, fmt.Errorf("repl: unexpected frame op 0x%02x on subscription", fr.Op)
}

// receiveSnapshot consumes the snapshot chunk stream (first already read)
// into Dir's snapshot file, atomically renamed into place, leaving the
// directory ready for openDB to recover from.
func (f *Follower) receiveSnapshot(br *bufio.Reader, first *server.V2ReplBatch) error {
	dir := f.cfg.Opts.Dir
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := storage.SnapshotPath(dir)
	tmp, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	defer os.Remove(path + ".tmp")
	b := first
	for {
		switch b.Kind {
		case server.V2ReplKindSnapChunk:
			if _, err := tmp.Write(b.Chunk); err != nil {
				tmp.Close()
				return err
			}
		case server.V2ReplKindSnapDone:
			if err := tmp.Sync(); err != nil {
				tmp.Close()
				return err
			}
			if err := tmp.Close(); err != nil {
				return err
			}
			return os.Rename(path+".tmp", path)
		default:
			tmp.Close()
			return fmt.Errorf("repl: unexpected batch kind 0x%02x inside snapshot stream", b.Kind)
		}
		if b, err = f.readBatch(br); err != nil {
			tmp.Close()
			return err
		}
	}
}

// run is the replay loop: apply batches from the live connection, ack the
// applied watermark, and reconnect with backoff on stream failure.
func (f *Follower) run(conn net.Conn, br *bufio.Reader, pending *server.V2ReplBatch) {
	defer close(f.done)
	var (
		lastRefresh   = time.Now()
		refreshedAt   = f.applied.Load()
		ckptEvery     = checkpointEvery(f.cfg.Opts)
		lastCkptBytes = f.db.WALStats().Bytes
	)
	for {
		// Entries stamped above the last received watermark wait here for a
		// covering watermark. Scoped to one connection: a resubscription
		// replays everything above the applied CSN anyway.
		var buffered []storage.ReplEntry
		for {
			var b *server.V2ReplBatch
			var err error
			if pending != nil {
				b, pending = pending, nil
			} else if b, err = f.readBatch(br); err != nil {
				if f.isClosed() {
					return
				}
				f.logf("repl: stream from %s failed: %v", f.cfg.PrimaryAddr, err)
				break
			}
			if b.Kind != server.V2ReplKindEntries {
				f.setFatal(fmt.Errorf("repl: primary demands snapshot re-bootstrap mid-life; restart the follower"))
				conn.Close()
				f.setConn(nil)
				return
			}
			buffered = append(buffered, b.Entries...)
			apply := buffered[:0:0]
			keep := buffered[len(buffered):]
			for _, en := range buffered {
				if uint64(en.CSN) <= b.Watermark {
					apply = append(apply, en)
				} else {
					keep = append(keep, en)
				}
			}
			buffered = keep
			w := b.Watermark
			if len(apply) > 0 || w > f.applied.Load() {
				if err := f.db.ReplApply(apply, w); err != nil {
					f.setFatal(fmt.Errorf("repl: apply: %w", err))
					conn.Close()
					f.setConn(nil)
					return
				}
				f.applied.Store(f.db.CSN())
			}
			f.primaryW.Store(w)
			f.lastBatch.Store(time.Now().UnixNano())
			if err := f.sendAck(conn); err != nil {
				if f.isClosed() {
					return
				}
				f.logf("repl: ack to %s failed: %v", f.cfg.PrimaryAddr, err)
				break
			}

			if f.cfg.RefreshEvery > 0 && time.Since(lastRefresh) >= f.cfg.RefreshEvery &&
				f.applied.Load() != refreshedAt {
				if err := f.db.RefreshDerived(); err != nil {
					f.logf("repl: refresh derived: %v", err)
				}
				lastRefresh = time.Now()
				refreshedAt = f.applied.Load()
			}
			if ckptEvery > 0 {
				if bytes := f.db.WALStats().Bytes; bytes-lastCkptBytes >= ckptEvery {
					if err := f.db.Checkpoint(); err != nil {
						f.logf("repl: local checkpoint: %v", err)
					}
					lastCkptBytes = bytes
				}
			}
		}

		// Stream broken: reconnect with backoff and resubscribe at the
		// applied CSN. A primary that can no longer serve it from the log
		// answers with a snapshot stream, which is fatal mid-life.
		conn.Close()
		f.setConn(nil)
		for {
			if f.isClosed() {
				return
			}
			time.Sleep(redialWait)
			if f.isClosed() {
				return
			}
			c, r, err := f.dialSubscribe()
			if err != nil {
				f.logf("repl: redial %s: %v", f.cfg.PrimaryAddr, err)
				continue
			}
			conn, br = c, r
			break
		}
		f.setConn(conn)
		f.logf("repl: resubscribed to %s at csn %d", f.cfg.PrimaryAddr, f.applied.Load())
	}
}

// sendAck reports the applied CSN up the subscription.
func (f *Follower) sendAck(conn net.Conn) error {
	e := server.GetV2Enc()
	frame := server.EncodeV2ReplAck(e, 1, f.applied.Load())
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	_, err := conn.Write(frame)
	conn.SetWriteDeadline(time.Time{})
	e.Release()
	return err
}
