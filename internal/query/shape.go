package query

import (
	"encoding/binary"
	"slices"
	"sync"

	"scdb/internal/model"
)

// A statement's shape is its token stream with each lifted literal cut out:
// a string or number that is a whole comparison operand, col OP literal.
// Texts that differ only in those literals, in whitespace, comments or
// keyword case share one shape, so they share one plan: nothing the
// optimizer reads by value is ever lifted (a folded constant, a call's
// argument, LIMIT, LIKE, IN, UNDER FUZZY, a negated number, NULL, TRUE,
// FALSE), and a statement that renders its plan (EXPLAIN, TRACE) lifts
// nothing, so its plan text stays its own.

// renders reports whether the statement renders its plan: it begins with
// EXPLAIN or TRACE.
func renders(toks []token) bool {
	t := toks[0]
	return t.kind == tokKeyword && (t.text == "EXPLAIN" || t.text == "TRACE")
}

// liftedValue returns the value of toks[i] when it is a lifted literal: a
// string or number following a comparison operator that follows a name
// (plain, quoted or the column of a qualified one), with no arithmetic
// operator after it. toks ends with its EOF token.
func liftedValue(toks []token, i int) (model.Value, bool) {
	if t := toks[i]; i < 2 || t.kind != tokNumber && t.kind != tokString ||
		!isOp(toks[i-1], "=", "!=", "<", "<=", ">", ">=") || // the lexer spells <> as !=
		toks[i-2].kind != tokIdent && toks[i-2].kind != tokQuoted ||
		isOp(toks[i+1], "+", "-", "*", "/") {
		return model.Value{}, false
	}
	v, _, err := tokenValue(toks[i])
	return v, err == nil
}

// isOp reports whether t is one of the operators ops.
func isOp(t token, ops ...string) bool {
	return t.kind == tokOp && slices.Contains(ops, t.text)
}

// AppendShape lexes src once, appends its shape to dst and the values of
// its lifted literals, in slot order, to args. A lexical error is Parse's.
// ParseShape(src) plans the shape: its Params bound to args, it is
// Parse(src). A token is written as its kind and its length-prefixed text,
// a lifted literal as one byte above every token kind, tagged with its
// value's kind (string, int or float).
func AppendShape(dst []byte, args []model.Value, src string) ([]byte, []model.Value, error) {
	var buf [64]token
	toks, err := lexAppend(buf[:0], src)
	if err != nil {
		return dst, args, err
	}
	lift := !renders(toks)
	for i, t := range toks[:len(toks)-1] {
		if lift {
			if v, ok := liftedValue(toks, i); ok {
				dst = append(dst, 0x80|byte(v.Kind()))
				args = append(args, v)
				continue
			}
		}
		dst = append(dst, byte(t.kind))
		dst = binary.AppendUvarint(dst, uint64(len(t.text)))
		dst = append(dst, t.text...)
	}
	return dst, args, nil
}

// ParseShape parses src as Parse does, with each lifted literal a Param of
// the slot AppendShape gives its value.
func ParseShape(src string) (*SelectStmt, error) { return parse(src, true) }

// ShapeCacheSize bounds a shape cache: the engine's plans and the router's
// decompositions each keep this many shapes.
const ShapeCacheSize = 256

// ShapeCache holds one immutable value per statement shape (AppendShape's
// key, with whatever prefix a user adds), the least recently used evicted
// beyond its capacity: an engine keeps its plans in one, a router its
// scatter decompositions. A value must serve every text of its shape, with
// that text's lifted literals bound, so one entry may serve concurrent
// statements. Get and Put are a map probe and a counter bump under a mutex.
type ShapeCache[V any] struct {
	mu      sync.Mutex
	cap     int
	tick    uint64
	entries map[string]*shapeEntry[V]
	hits    uint64
	misses  uint64
}

type shapeEntry[V any] struct {
	val      V
	lastUsed uint64
}

// ShapeCacheStats reports a shape cache's hits, misses and resident entries.
type ShapeCacheStats struct {
	Hits   uint64
	Misses uint64
	Size   int
}

// NewShapeCache returns an empty cache of the given capacity.
func NewShapeCache[V any](capacity int) *ShapeCache[V] {
	return &ShapeCache[V]{cap: capacity, entries: make(map[string]*shapeEntry[V])}
}

// Get returns the value cached under k and counts a hit or a miss.
func (c *ShapeCache[V]) Get(k []byte) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[string(k)]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.tick++
	e.lastUsed = c.tick
	c.hits++
	return e.val, true
}

// Put caches v under k, evicting the least recently used entry when the
// cache is full.
func (c *ShapeCache[V]) Put(k string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[k]; !exists && len(c.entries) >= c.cap {
		// An O(cap) sweep is fine at this size and keeps the structure a
		// single flat map.
		var victim string
		oldest := ^uint64(0)
		for key, e := range c.entries {
			if e.lastUsed < oldest {
				oldest, victim = e.lastUsed, key
			}
		}
		delete(c.entries, victim)
	}
	c.tick++
	c.entries[k] = &shapeEntry[V]{val: v, lastUsed: c.tick}
}

// Stats reads the counters and the resident entry count.
func (c *ShapeCache[V]) Stats() ShapeCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ShapeCacheStats{Hits: c.hits, Misses: c.misses, Size: len(c.entries)}
}
