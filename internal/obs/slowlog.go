package obs

import (
	"sync"
	"time"
	"unicode/utf8"
)

// SlowEntry is one recorded slow operation.
type SlowEntry struct {
	Op     string        // wire op or internal stage name
	Detail string        // statement text, source name, etc. (may be truncated)
	Start  time.Time     // when the operation began
	Dur    time.Duration // how long it ran
	Err    string        // non-empty when the operation failed
}

// maxDetail bounds stored statement text so a pathological query can't
// pin megabytes in the ring.
const maxDetail = 512

// SlowLog is a fixed-capacity ring of the most recent operations whose
// duration crossed a threshold. Once full, each new entry overwrites the
// oldest. A nil *SlowLog no-ops, and a threshold of 0 records nothing
// (rather than everything), so the log is inert unless configured.
type SlowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	ring      []SlowEntry
	next      int // ring index of the next write
	total     uint64
}

// NewSlowLog returns a ring of the given capacity that records operations
// at or above threshold. Capacity <= 0 or threshold <= 0 yields a nil
// (disabled) log.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 || threshold <= 0 {
		return nil
	}
	return &SlowLog{threshold: threshold, ring: make([]SlowEntry, 0, capacity)}
}

// Threshold returns the recording threshold (0 when disabled).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Observe records the operation if it ran at or above the threshold.
func (l *SlowLog) Observe(op, detail string, start time.Time, dur time.Duration, err error) {
	if l == nil || dur < l.threshold {
		return
	}
	if len(detail) > maxDetail {
		// Never split a rune: the detail is a sys.slowlog text cell. A
		// rune is at most utf8.UTFMax bytes, so the walk back stops there
		// on text that is not UTF-8.
		cut := maxDetail
		for cut > maxDetail-utf8.UTFMax && !utf8.RuneStart(detail[cut]) {
			cut--
		}
		detail = detail[:cut] + "..."
	}
	e := SlowEntry{Op: op, Detail: detail, Start: start, Dur: dur}
	if err != nil {
		e.Err = err.Error()
	}
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next] = e
		l.next = (l.next + 1) % cap(l.ring)
	}
	l.total++
	l.mu.Unlock()
}

// Snapshot returns the retained entries oldest-first, plus the lifetime
// count of recorded slow operations (including evicted ones).
func (l *SlowLog) Snapshot() ([]SlowEntry, uint64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, len(l.ring))
	if len(l.ring) < cap(l.ring) {
		out = append(out, l.ring...)
	} else {
		out = append(out, l.ring[l.next:]...)
		out = append(out, l.ring[:l.next]...)
	}
	return out, l.total
}
