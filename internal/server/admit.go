package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// ErrBusy is the typed load-shedding error: admission control rejected the
// request because the server is at its in-flight limit and either the wait
// queue is full or the request waited out the queue timeout. Clients should
// treat it as retryable with backoff. A queued request whose own context
// ends (canceled, or past its deadline) gets the context's error instead.
var ErrBusy = errors.New("server busy")

// admitter bounds in-flight statements. Requests beyond the limit wait in
// a fair FIFO queue; a release hands its slot directly to the head waiter
// (grant transfer — the in-flight count never dips, so a burst cannot
// sneak past the queue). Waiters that outwait the queue timeout are
// rejected with ErrBusy, as are arrivals when the queue itself is full;
// waiters whose context ends get the context's error.
type admitter struct {
	mu       sync.Mutex
	limit    int // <=0 means unlimited
	maxQueue int
	inflight int
	peak     int
	queue    []chan struct{}
}

func newAdmitter(limit, maxQueue int) *admitter {
	return &admitter{limit: limit, maxQueue: maxQueue}
}

// acquire blocks until a slot is granted, the context ends or, once queued,
// wait passes (wait <= 0: only the context bounds it); only a queued request
// arms a timer. A nil error means the caller holds a slot to release.
func (a *admitter) acquire(ctx context.Context, wait time.Duration) error {
	a.mu.Lock()
	if a.limit <= 0 || a.inflight < a.limit {
		a.inflight++
		a.peak = max(a.peak, a.inflight)
		a.mu.Unlock()
		return nil
	}
	if len(a.queue) >= a.maxQueue {
		a.mu.Unlock()
		return fmt.Errorf("%w: %d in flight, queue full (%d waiting)", ErrBusy, a.limit, a.maxQueue)
	}
	grant := make(chan struct{})
	a.queue = append(a.queue, grant)
	a.mu.Unlock()

	var expired <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-grant:
		return nil
	case <-ctx.Done():
	case <-expired:
	}
	a.mu.Lock()
	i := slices.Index(a.queue, grant)
	if i >= 0 {
		a.queue = slices.Delete(a.queue, i, i+1)
	}
	a.mu.Unlock()
	if i < 0 {
		// The grant raced the wake-up: a releaser already removed us from
		// the queue and is closing the channel. Take the slot and give it
		// straight back so the count stays exact.
		<-grant
		a.release()
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("while queued: %w", err)
	}
	return fmt.Errorf("%w: queue timeout after queueing behind %d requests", ErrBusy, max(i, 0))
}

// release returns a slot: the head waiter inherits it if one is queued,
// otherwise the in-flight count drops.
func (a *admitter) release() {
	a.mu.Lock()
	if len(a.queue) > 0 {
		grant := a.queue[0]
		a.queue = a.queue[1:]
		a.mu.Unlock()
		close(grant)
		return
	}
	if a.inflight > 0 {
		a.inflight--
	}
	a.mu.Unlock()
}

// depth reports current in-flight statements, queued waiters, and the
// in-flight high-water mark.
func (a *admitter) depth() (inflight, queued, peak int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight, len(a.queue), a.peak
}
