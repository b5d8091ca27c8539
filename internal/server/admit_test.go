package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestAdmitLimit: the in-flight count never exceeds the limit; releases
// admit waiters.
func TestAdmitLimit(t *testing.T) {
	a := newAdmitter(2, 8)
	ctx := context.Background()
	if err := a.acquire(ctx, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(ctx, time.Second); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if err := a.acquire(short, time.Second); !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrBusy) {
		t.Fatalf("queued acquire past its deadline: got %v, want the context's error", err)
	}

	done := make(chan error, 1)
	go func() {
		c, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		done <- a.acquire(c, time.Second)
	}()
	// Wait until the waiter is queued, then release: the slot must
	// transfer to it.
	for {
		if _, q, _ := a.depth(); q == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	a.release()
	if err := <-done; err != nil {
		t.Fatalf("waiter after release: %v", err)
	}
	if inflight, _, peak := a.depth(); inflight != 2 || peak != 2 {
		t.Fatalf("inflight=%d peak=%d, want 2/2", inflight, peak)
	}
	a.release()
	a.release()
	if inflight, _, _ := a.depth(); inflight != 0 {
		t.Fatalf("inflight=%d after full release", inflight)
	}
}

// TestAdmitQueueTimeout: a queued request gives up with ErrBusy once the
// queue timeout passes, however far off its own deadline is, and leaves the
// queue empty.
func TestAdmitQueueTimeout(t *testing.T) {
	a := newAdmitter(1, 8)
	if err := a.acquire(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := a.acquire(ctx, 30*time.Millisecond); !errors.Is(err, ErrBusy) {
		t.Fatalf("queued past the queue timeout: got %v, want ErrBusy", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("gave up after %v, want about the 30ms queue timeout", waited)
	}
	if inflight, queued, _ := a.depth(); inflight != 1 || queued != 0 {
		t.Errorf("inflight=%d queued=%d after the timeout, want 1/0", inflight, queued)
	}
	a.release()
	if inflight, _, _ := a.depth(); inflight != 0 {
		t.Errorf("inflight=%d after release", inflight)
	}
}

// TestAdmitGrantRacesTimer: a release that hands the slot to a waiter
// whose queue timer has already fired leaves the in-flight count exact,
// whichever of the two the waiter sees first.
func TestAdmitGrantRacesTimer(t *testing.T) {
	a := newAdmitter(1, 8)
	if err := a.acquire(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.acquire(context.Background(), 10*time.Millisecond) }()
	for {
		if _, q, _ := a.depth(); q == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Hold the lock past the timer, then do what release does under it:
	// take the waiter off the queue and close its grant. The waiter, woken
	// by its timer, no longer finds itself queued.
	a.mu.Lock()
	time.Sleep(50 * time.Millisecond)
	grant := a.queue[0]
	a.queue = a.queue[1:]
	a.mu.Unlock()
	close(grant)
	err := <-done
	switch {
	case err == nil: // the waiter saw the grant first and holds the slot
		a.release()
	case !errors.Is(err, ErrBusy):
		t.Fatalf("raced grant: got %v, want nil or ErrBusy", err)
	}
	if inflight, queued, _ := a.depth(); inflight != 0 || queued != 0 {
		t.Errorf("inflight=%d queued=%d after the race, want 0/0", inflight, queued)
	}
}

// TestAdmitQueueFull: arrivals beyond limit+queue are shed immediately.
func TestAdmitQueueFull(t *testing.T) {
	a := newAdmitter(1, 1)
	if err := a.acquire(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		c, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		queued <- a.acquire(c, time.Second)
	}()
	for {
		if _, q, _ := a.depth(); q == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := a.acquire(context.Background(), time.Second); !errors.Is(err, ErrBusy) {
		t.Fatalf("full queue: got %v, want ErrBusy", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("full-queue rejection should not block")
	}
	a.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	a.release()
}

// TestAdmitFIFO: waiters are granted in arrival order.
func TestAdmitFIFO(t *testing.T) {
	a := newAdmitter(1, 8)
	if err := a.acquire(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
	const waiters = 4
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		// Queue one at a time so arrival order is deterministic.
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := a.acquire(context.Background(), time.Second); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			a.release()
		}(i)
		for {
			if _, q, _ := a.depth(); q == i+1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	a.release()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want FIFO", order)
		}
	}
}

// TestAdmitUnlimited: a negative limit disables admission entirely.
func TestAdmitUnlimited(t *testing.T) {
	a := newAdmitter(-1, 0)
	for i := 0; i < 100; i++ {
		if err := a.acquire(context.Background(), time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if inflight, _, _ := a.depth(); inflight != 100 {
		t.Fatalf("inflight=%d, want 100", inflight)
	}
	for i := 0; i < 100; i++ {
		a.release()
	}
}
