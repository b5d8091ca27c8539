package query

import (
	"context"
	"sync"

	"scdb/internal/model"
)

// DefaultMorselSize is the number of rows per morsel — the scheduling
// granule of the parallel executor, following the morsel-driven design of
// HyPer (Leis et al., SIGMOD 2014). ~1k rows amortizes dispatch overhead
// while staying cache-resident.
const DefaultMorselSize = 1024

// morsel is a fixed-size chunk of rows flowing through the executor. idx is
// the morsel's sequence number within its stream; stages renumber their
// output so every stream is densely indexed from 0. recs carries raw
// records between a streaming scan source and the binding stage.
type morsel struct {
	idx    int
	rows   []Row
	recs   []model.Record
	hashes []uint64        // per-row hashes, attached by Distinct's hashing stage
	keys   [][]model.Value // per-row sort keys, attached by Sort/TopK's key stage
}

// stream is a pull iterator of morsels. next returns the next morsel in
// index order; ok=false means end of stream (err then carries the first
// error, if any). stop cancels the stream early: producers unwind and
// upstream stages cascade the cancellation. next is not safe for concurrent
// callers — parStage serializes its pulls.
type stream struct {
	next func() (m morsel, ok bool, err error)
	stop func()
}

// emptyStream produces nothing.
func emptyStream() *stream {
	return &stream{
		next: func() (morsel, bool, error) { return morsel{}, false, nil },
		stop: func() {},
	}
}

// sliceStream chunks materialized rows into morsels of the given size.
func sliceStream(rows []Row, size int) *stream {
	i, idx := 0, 0
	return &stream{
		next: func() (morsel, bool, error) {
			if i >= len(rows) {
				return morsel{}, false, nil
			}
			end := i + size
			if end > len(rows) {
				end = len(rows)
			}
			m := morsel{idx: idx, rows: rows[i:end]}
			i, idx = end, idx+1
			return m, true, nil
		},
		stop: func() {},
	}
}

// goSource runs produce in a goroutine and exposes the emitted record
// chunks as a stream. Emitted slices must stay valid after emit returns
// (they cross a channel). produce's emit returns false once the consumer
// stopped or ctx was canceled — either way the producer unwinds its scan;
// produce's error is surfaced at end of stream. The producer goroutine
// registers in wg so the executor can join it before returning.
func goSource(ctx context.Context, wg *sync.WaitGroup, produce func(emit func([]model.Record) bool) error) *stream {
	ch := make(chan []model.Record, 4)
	done := make(chan struct{})
	var once sync.Once
	stop := func() { once.Do(func() { close(done) }) }
	var srcErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := produce(func(recs []model.Record) bool {
			select {
			case ch <- recs:
				return true
			case <-done:
				return false
			case <-ctx.Done():
				return false
			}
		})
		if err == nil {
			// A scan that unwound because ctx ended did not finish: without
			// this the consumer sees a clean end of stream and returns the
			// rows so far as the answer.
			err = ctx.Err()
		}
		srcErr = err // happens-before the close below
		close(ch)
	}()
	idx := 0
	return &stream{
		next: func() (morsel, bool, error) {
			recs, ok := <-ch
			if !ok {
				return morsel{}, false, srcErr
			}
			m := morsel{idx: idx, recs: recs}
			idx++
			return m, true, nil
		},
		stop: stop,
	}
}

// drainRows materializes a stream, observing ctx between morsels so a
// canceled query stops pulling (and stops the producers) promptly.
func drainRows(ctx context.Context, s *stream) ([]Row, error) {
	var rows []Row
	for {
		if err := ctx.Err(); err != nil {
			s.stop()
			return nil, err
		}
		m, ok, err := s.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		rows = append(rows, m.rows...)
	}
}

// parStage applies fn to every morsel of in on a pool of workers, restoring
// index order on output. Output is byte-identical to the workers==1 case
// for any worker count: morsels are pulled in sequence, processed
// independently, and reassembled through a reorder buffer; the first error
// in morsel order wins, exactly as a serial loop would surface it.
func parStage(in *stream, workers int, wg *sync.WaitGroup, fn func(morsel) (morsel, error)) *stream {
	if workers <= 1 {
		idx := 0
		return &stream{
			next: func() (morsel, bool, error) {
				m, ok, err := in.next()
				if err != nil || !ok {
					return morsel{}, false, err
				}
				out, err := fn(m)
				if err != nil {
					in.stop()
					return morsel{}, false, err
				}
				out.idx = idx
				idx++
				return out, true, nil
			},
			stop: in.stop,
		}
	}
	// Workers may run at most ~4 morsels per worker ahead of the consumer:
	// enough to keep the pool busy, bounded so the reorder buffer stays
	// small and a downstream LIMIT's stop arrives before the stage has
	// raced through the whole input.
	p := &parState{in: in, fn: fn, results: map[int]stageOut{}, ahead: workers * 4}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	return &stream{next: p.next, stop: p.stopAll}
}

type stageOut struct {
	m   morsel
	err error
}

// parState is the shared state of one parallel stage: pullMu serializes
// pulls from the upstream stream (assigning dense indices), mu guards the
// reorder buffer and lifecycle flags.
type parState struct {
	in *stream
	fn func(morsel) (morsel, error)

	pullMu sync.Mutex

	mu      sync.Mutex
	cond    *sync.Cond
	results map[int]stageOut
	ahead   int // max morsels in flight past the consumer (backpressure)
	pulled  int
	inDone  bool
	inErr   error
	erred   bool
	stopped bool
	nextIdx int
}

func (p *parState) work() {
	for {
		p.mu.Lock()
		quit := p.stopped || p.erred || p.inDone
		p.mu.Unlock()
		if quit {
			return
		}
		p.pullMu.Lock()
		p.mu.Lock()
		// Backpressure: holding pullMu (so no sibling overtakes), wait for
		// the consumer to catch up before pulling further input. The
		// consumer only needs mu, which Wait releases.
		for !p.stopped && !p.erred && !p.inDone && p.pulled-p.nextIdx >= p.ahead {
			p.cond.Wait()
		}
		if p.stopped || p.erred || p.inDone {
			p.mu.Unlock()
			p.pullMu.Unlock()
			return
		}
		p.mu.Unlock()
		m, ok, err := p.in.next()
		if !ok || err != nil {
			p.mu.Lock()
			p.inDone = true
			p.inErr = err
			p.mu.Unlock()
			p.pullMu.Unlock()
			p.cond.Broadcast()
			return
		}
		p.mu.Lock()
		idx := p.pulled
		p.pulled++
		p.mu.Unlock()
		p.pullMu.Unlock()

		out, ferr := p.fn(m)
		out.idx = idx
		p.mu.Lock()
		p.results[idx] = stageOut{out, ferr}
		if ferr != nil {
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
		if r, ok := p.results[p.nextIdx]; ok {
			delete(p.results, p.nextIdx)
			if r.err != nil {
				p.stopped = true
				p.mu.Unlock()
				p.in.stop()
				p.cond.Broadcast()
				p.mu.Lock()
				return morsel{}, false, r.err
			}
			p.nextIdx++
			p.cond.Broadcast() // wake workers parked on backpressure
			return r.m, true, nil
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

func (p *parState) stopAll() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.in.stop()
}

// parMap applies fn to every morsel on a worker pool and returns the
// results in morsel order — the fan-in primitive for pipeline breakers
// (sort keys, aggregation partials). Error semantics match a serial loop:
// the error from the lowest-indexed failing morsel wins, and an upstream
// stream error only surfaces if no processed morsel before it failed.
func parMap[T any](in *stream, workers int, fn func(morsel) (T, error)) ([]T, error) {
	if workers <= 1 {
		var out []T
		for {
			m, ok, err := in.next()
			if err != nil {
				return nil, err
			}
			if !ok {
				return out, nil
			}
			v, ferr := fn(m)
			if ferr != nil {
				in.stop()
				return nil, ferr
			}
			out = append(out, v)
		}
	}
	var (
		pullMu   sync.Mutex
		mu       sync.Mutex
		results  = map[int]T{}
		errIdx   = -1
		firstErr error
		inErr    error
		pulled   int
		done     bool
		wg       sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for {
			pullMu.Lock()
			mu.Lock()
			quit := done || errIdx >= 0
			mu.Unlock()
			if quit {
				pullMu.Unlock()
				return
			}
			m, ok, err := in.next()
			if !ok || err != nil {
				mu.Lock()
				done = true
				if err != nil {
					inErr = err
				}
				mu.Unlock()
				pullMu.Unlock()
				return
			}
			mu.Lock()
			idx := pulled
			pulled++
			mu.Unlock()
			pullMu.Unlock()

			v, ferr := fn(m)
			mu.Lock()
			if ferr != nil {
				if errIdx < 0 || idx < errIdx {
					errIdx, firstErr = idx, ferr
				}
			} else {
				results[idx] = v
			}
			mu.Unlock()
		}
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go worker()
	}
	wg.Wait()
	if errIdx >= 0 {
		in.stop()
		return nil, firstErr
	}
	if inErr != nil {
		return nil, inErr
	}
	out := make([]T, pulled)
	for i := range out {
		out[i] = results[i]
	}
	return out, nil
}
