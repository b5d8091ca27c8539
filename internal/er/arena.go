package er

import (
	"sync"
	"unicode/utf8"
	"unsafe"
)

// arenaChunk is the most bytes one chunk of each kind an arena holds may
// take. A chunk lives while any range carved from it does, and the resolver
// keeps every entity it indexes, so a chunk lives as long as its resolver.
// It is 8 KB less mallocHeader: an array of pointers larger than 512 bytes
// carries a header of that size, and a full 8 KB with it would take the
// next size class, 9,472 bytes.
const (
	arenaChunk   = 8<<10 - mallocHeader
	mallocHeader = 8
)

// arena is where a resolver carves what it keeps of every entity it indexes
// and every vector its ANN index holds: one chunk per kind, each range cut
// off the front of its chunk. Prepare runs on concurrent workers, so the
// arena has a mutex, and an arrival takes it once (carve), for all of its
// ranges. An arena only moves forward: nothing carved is handed out twice
// or written again by the arena, which is what lets a normal form be a
// string over arena bytes. A range Prepare carves for an entity that is
// never committed (a re-delivered key, a benchmark that only prepares) is
// never reused: it is held for as long as its chunk is.
type arena struct {
	mu    sync.Mutex
	bytes []byte     // normal forms
	attrs []AttrText // an entity's attributes
	strs  []string   // token sets: an entity's, and each value's tokens and digits
	vals  []attrVal  // per-value derivations
	tris  []uint64   // trigram sets
	vecs  []float32  // ANN embeddings
}

// need is what deriving one entity carves, counted by kind before the lock
// is taken.
type need struct{ bytes, attrs, strs, vals, tris int }

// value counts what deriving one attribute's text keeps. withTokens also
// counts its fields as members of the entity's token set (a digest brings
// its own).
func (n *need) value(text string, withTokens bool) {
	fs, digits := 0, 0
	for f, i := nextField(text, 0); f != ""; f, i = nextField(text, i) {
		fs++
		if hasDigit(f) {
			digits++
		}
	}
	if withTokens {
		n.strs += fs
	}
	if len(text) >= minIdentifyingLen {
		n.vals++
		n.strs += fs + digits
		n.tris += utf8.RuneCountInString(text) + 2
	}
}

// room is one entity's carved ranges, each empty with exactly the capacity
// its need asked for, so an append within it never reaches a neighbour and
// an append past it moves to an array of its own.
type room struct {
	bytes []byte
	attrs Attrs
	strs  []string
	vals  []attrVal
	tris  []uint64
}

// carve cuts one entity's ranges, under one lock.
func (a *arena) carve(n need) room {
	a.mu.Lock()
	defer a.mu.Unlock()
	return room{
		bytes: take(&a.bytes, n.bytes),
		attrs: take(&a.attrs, n.attrs),
		strs:  take(&a.strs, n.strs),
		vals:  take(&a.vals, n.vals),
		tris:  take(&a.tris, n.tris),
	}
}

// keepVec copies an embedding into a range of its own, for the ANN index to
// hold.
func (a *arena) keepVec(vec []float32) []float32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append(take(&a.vecs, len(vec)), vec...)
}

// take cuts room for n elements off the front of *chunk, starting a new
// chunk when the current one cannot hold them; the rest of the old one is
// never used. A range of more than a quarter chunk gets an array of its own
// instead, so a wide entity neither wastes a chunk's tail nor outgrows one.
// No room is nil, as an entity without tokens keeps nil.
func take[T any](chunk *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if len(*chunk) < n {
		size := max(arenaChunk/int(unsafe.Sizeof(*new(T))), 1)
		if n > size/4 {
			return make([]T, 0, n)
		}
		*chunk = make([]T, size)
	}
	r := (*chunk)[:0:n]
	*chunk = (*chunk)[n:]
	return r
}
