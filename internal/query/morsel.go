package query

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"scdb/internal/model"
)

// DefaultMorselSize is the number of rows per morsel — the scheduling
// granule of the parallel executor, following the morsel-driven design of
// HyPer (Leis et al., SIGMOD 2014). ~1k rows amortizes dispatch overhead
// while staying cache-resident.
const DefaultMorselSize = 1024

// morsel is a chunk of rows flowing through the executor. recs carries raw
// records between a scan cursor and the stage that binds them; the
// attachments carry one operator's per-morsel work to the next.
type morsel struct {
	rows   []Row
	recs   []model.Record
	hashes []uint64        // per-row hashes, attached by Distinct's hashing stage
	keys   [][]model.Value // per-row sort keys, attached by Sort/TopK's key stage
	groups *groupTable     // the morsel's GROUP BY partial, attached by Aggregate
}

// stream is a pull iterator of morsels, implemented by each operator's
// state. next returns the next morsel in order; ok=false means end of
// stream (err then carries the first error, if any). Whoever pulls runs
// the operator and everything upstream of it that runs inline: the caller
// in a serial chain, or a stage worker holding its stage's pull lock, so
// next never has two callers at once. stop tells the stream nobody will
// pull it again, so parallel stages upstream park their workers; it may be
// called from any goroutine, while a pull is under way.
type stream interface {
	next() (m morsel, ok bool, err error)
	stop()
}

// sliceStream chunks materialized rows into morsels of the given size.
type sliceStream struct {
	rows []Row
	size int
}

func (s *sliceStream) next() (morsel, bool, error) {
	if len(s.rows) == 0 {
		return morsel{}, false, nil
	}
	n := min(s.size, len(s.rows))
	m := morsel{rows: s.rows[:n:n]}
	s.rows = s.rows[n:]
	return m, true, nil
}

func (s *sliceStream) stop() {}

// scanSource is a scan cursor as a stream of record morsels. The cursor
// runs on the goroutine that pulls; a scan the context ended surfaces the
// context's error, not a clean end of stream that would return the rows so
// far as the answer.
type scanSource struct {
	cur ScanCursor
	ctx context.Context
	st  *OpStats
}

func (s *scanSource) next() (morsel, bool, error) {
	recs := s.cur.Next()
	// Plain writes are safe: pulls are serialized, and ExecuteOpts joins
	// every worker before anyone reads the stats tree.
	s.st.Pruned = int64(s.cur.Info().Pruned)
	if recs == nil {
		return morsel{}, false, s.ctx.Err()
	}
	return morsel{recs: recs}, true, nil
}

func (s *scanSource) stop() {}

// pull hands every morsel of s to fn, in order, until s ends or s or fn
// fails, and returns the first error.
func pull(s stream, fn func(morsel) error) error {
	for {
		m, ok, err := s.next()
		if err != nil || !ok {
			return err
		}
		if err := fn(m); err != nil {
			return err
		}
	}
}

// drainRows materializes a stream. A stream of one morsel hands back that
// morsel's rows as they are.
func drainRows(s stream) ([]Row, error) {
	var rows []Row
	err := pull(s, func(m morsel) error {
		if rows == nil {
			rows = slices.Clip(m.rows)
		} else {
			rows = append(rows, m.rows...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// morselOp is an operator's work on one morsel.
type morselOp interface {
	process(m morsel) (morsel, error)
}

// stage runs an operator over its input morsel by morsel. It pulls and
// processes on the caller's goroutine; once a second morsel exists, and
// workers > 1, it hands the rest of the input to a pool of workers (a
// parState). Output is byte-identical for every worker count: morsels are
// pulled in sequence, processed independently, and reassembled in order;
// the first error in morsel order wins, exactly as the serial loop
// surfaces it. Each morsel first checks the statement's context, so a
// canceled query stops within one morsel.
type stage struct {
	in      stream
	op      morselOp
	x       *execCtx
	workers int
	started bool // a morsel was pulled on the caller's goroutine
	stopped atomic.Bool
	par     atomic.Pointer[parState] // nil while the stage runs inline
}

// init makes s op's stage over in, at the statement's worker count.
func (s *stage) init(x *execCtx, in stream, op morselOp) {
	s.x, s.in, s.op, s.workers = x, in, op, x.workers
}

func (s *stage) run(m morsel) (morsel, error) {
	if err := s.x.ctx.Err(); err != nil {
		return morsel{}, err
	}
	return s.op.process(m)
}

func (s *stage) next() (morsel, bool, error) {
	if p := s.par.Load(); p != nil {
		return p.next()
	}
	m, ok, err := s.in.next()
	if err != nil || !ok {
		return morsel{}, false, err
	}
	if s.started && s.workers > 1 {
		return s.goParallel(m).next()
	}
	s.started = true
	out, err := s.run(m)
	if err != nil {
		s.in.stop()
		return morsel{}, false, err
	}
	return out, true, nil
}

func (s *stage) stop() {
	s.stopped.Store(true)
	if p := s.par.Load(); p != nil {
		p.halt()
	}
	s.in.stop()
}

// goParallel starts the stage's workers, handing them m — the second
// morsel or later, already pulled — as the first they take.
func (s *stage) goParallel(m morsel) *parState {
	// Workers may run at most 4 morsels per worker ahead of the consumer:
	// enough to keep the pool busy, bounded so the ring stays small and a
	// downstream LIMIT's stop arrives before the stage has raced through
	// the whole input.
	p := &parState{s: s, ring: make([]stageOut, s.workers*4), stash: m, stashed: true}
	p.cond.L = &p.mu
	s.par.Store(p)
	for range s.workers {
		s.x.wg.Add(1)
		go func() {
			defer s.x.wg.Done()
			p.work()
		}()
	}
	if s.stopped.Load() {
		p.halt() // a stop raced the hand-over
	}
	return p
}

type stageOut struct {
	m    morsel
	err  error
	done bool
}

// parState is a stage's worker pool: pullMu serializes pulls from the
// input (assigning morsel numbers in order), mu guards the ring and the
// lifecycle flags. Morsel i's output waits in ring[i%len(ring)] until the
// consumer takes it; backpressure keeps every morsel in flight within
// len(ring) of the consumer, so no two share a slot.
type parState struct {
	s       *stage
	pullMu  sync.Mutex
	stash   morsel // the morsel that started the pool, until a worker takes it
	stashed bool

	mu      sync.Mutex
	cond    sync.Cond
	ring    []stageOut
	pulled  int // morsels the workers numbered so far, from the stash on
	nextIdx int // the morsel the consumer waits for
	inDone  bool
	inErr   error
	erred   bool
	stopped bool
}

func (p *parState) quit() bool { return p.stopped || p.erred || p.inDone }

func (p *parState) work() {
	for {
		p.pullMu.Lock()
		p.mu.Lock()
		// Backpressure: holding pullMu (so no sibling overtakes), wait for
		// the consumer to catch up before pulling further input. The
		// consumer only needs mu, which Wait releases.
		for !p.quit() && p.pulled-p.nextIdx >= len(p.ring) {
			p.cond.Wait()
		}
		if p.quit() {
			p.mu.Unlock()
			p.pullMu.Unlock()
			return
		}
		p.mu.Unlock()
		m, ok, err := p.stash, true, error(nil)
		if p.stashed {
			p.stash, p.stashed = morsel{}, false
		} else {
			m, ok, err = p.s.in.next()
		}
		p.mu.Lock()
		if !ok || err != nil {
			p.inDone, p.inErr = true, err
			p.mu.Unlock()
			p.pullMu.Unlock()
			p.cond.Broadcast()
			return
		}
		idx := p.pulled
		p.pulled++
		p.mu.Unlock()
		p.pullMu.Unlock()

		out, err := p.s.run(m)
		p.mu.Lock()
		p.ring[idx%len(p.ring)] = stageOut{out, err, true}
		if err != nil {
			p.erred = true
		}
		p.mu.Unlock()
		p.cond.Broadcast()
	}
}

func (p *parState) next() (morsel, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if r := &p.ring[p.nextIdx%len(p.ring)]; r.done {
			out := *r
			*r = stageOut{}
			if out.err != nil {
				p.stopped = true
				p.mu.Unlock()
				p.s.in.stop()
				p.cond.Broadcast()
				p.mu.Lock()
				return morsel{}, false, out.err
			}
			p.nextIdx++
			p.cond.Broadcast() // wake workers parked on backpressure
			return out.m, true, nil
		}
		if p.inDone && p.nextIdx >= p.pulled {
			return morsel{}, false, p.inErr
		}
		if p.stopped {
			return morsel{}, false, nil
		}
		p.cond.Wait()
	}
}

// halt parks the workers: none pulls again, and the consumer sees the end.
func (p *parState) halt() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.cond.Broadcast()
}
