// Package model defines the core value system shared by every layer of the
// self-curating database: dynamically typed values with systematic null
// handling (Codd's three-valued logic, extended per the paper's "systematic
// treatment of null values" rule), fuzzy truth degrees, confidence-annotated
// data, records, and entities.
//
// The paper argues that each data item must be allowed to be "noisy, fuzzy,
// uncertain, or incomplete so that it can be manipulated systematically"
// (Section 5). This package is the single place where those notions are
// defined; higher layers (storage, graph, ontology, query) build on it.
package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds. KindNull represents a missing or unknown value
// (interpreted under either the open- or closed-world assumption by the
// uncertain package). KindRef holds a reference to another entity, which is
// how instance-level interconnectedness enters the instance layer.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindTime
	KindBytes
	KindList
	KindRef
)

var kindNames = [...]string{
	KindNull:   "null",
	KindBool:   "bool",
	KindInt:    "int",
	KindFloat:  "float",
	KindString: "string",
	KindTime:   "time",
	KindBytes:  "bytes",
	KindList:   "list",
	KindRef:    "ref",
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// EntityID identifies an entity in the relation layer. IDs are allocated
// densely by the graph store so they can double as array indexes in
// locality-optimized representations (CSR snapshots, clustered layouts).
type EntityID uint64

// NoEntity is the zero EntityID, used to signal "no such entity".
const NoEntity EntityID = 0

// Value is a dynamically typed scalar, list, or entity reference. The zero
// Value is null. Values are immutable by convention: helpers return new
// Values rather than mutating in place.
//
// A Value is three words. n holds the payload of a bool (0 or 1), an int, a
// time (UnixNano) or a ref, the bits of a float, or the length of a string,
// bytes or list; p points at the first byte or element of a string, bytes or
// list and is nil for every other kind. The zero-size func array keeps Value
// non-comparable, so no == and no map key can compare p's addresses instead
// of the contents they point at: use Equal, and Hash for keys.
type Value struct {
	_    [0]func()
	kind Kind
	n    uint64
	p    unsafe.Pointer
}

// Null returns the null value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// String returns a string value.
func String(s string) Value {
	return Value{kind: KindString, n: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// Time returns a time value with nanosecond precision.
func Time(t time.Time) Value { return Value{kind: KindTime, n: uint64(t.UnixNano())} }

// Bytes returns a binary value. The slice is not copied; callers must not
// mutate it afterwards.
func Bytes(b []byte) Value {
	return Value{kind: KindBytes, n: uint64(len(b)), p: unsafe.Pointer(unsafe.SliceData(b))}
}

// List returns a list value. The slice is not copied.
func List(vs ...Value) Value {
	return Value{kind: KindList, n: uint64(len(vs)), p: unsafe.Pointer(unsafe.SliceData(vs))}
}

// Ref returns a reference to the entity with the given ID.
func Ref(id EntityID) Value { return Value{kind: KindRef, n: uint64(id)} }

// word returns the inline payload of a bool, int, time or ref, and 0 for
// every other kind: what the wrong-kind accessors have always returned.
func (v Value) word() int64 {
	switch v.kind {
	case KindBool, KindInt, KindTime, KindRef:
		return int64(v.n)
	}
	return 0
}

// raw returns the payload of a string or bytes value as a string sharing
// its memory, and "" for every other kind.
func (v Value) raw() string {
	if v.kind != KindString && v.kind != KindBytes {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

// elems returns the elements of a list value (nil for a nil list and every
// other kind).
func (v Value) elems() []Value {
	if v.kind != KindList {
		return nil
	}
	return unsafe.Slice((*Value)(v.p), int(v.n))
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; ok is false if v is not a bool.
func (v Value) AsBool() (b, ok bool) { return v.word() != 0, v.kind == KindBool }

// AsInt returns the integer payload; ok is false if v is not an int.
func (v Value) AsInt() (int64, bool) { return v.word(), v.kind == KindInt }

// AsFloat returns v as a float64 when v is numeric (int or float).
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.n), true
	case KindInt:
		return float64(int64(v.n)), true
	}
	return 0, false
}

// AsString returns the string payload; ok is false if v is not a string.
func (v Value) AsString() (string, bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.raw(), true
}

// AsTime returns the time payload; ok is false if v is not a time.
func (v Value) AsTime() (time.Time, bool) {
	if v.kind != KindTime {
		return time.Time{}, false
	}
	return time.Unix(0, int64(v.n)).UTC(), true
}

// AsBytes returns the bytes payload, which aliases the slice Bytes was
// given (with cap equal to len); ok is false if v is not bytes.
func (v Value) AsBytes() ([]byte, bool) {
	if v.kind != KindBytes {
		return nil, false
	}
	return unsafe.Slice((*byte)(v.p), int(v.n)), true
}

// AsList returns the list payload, which aliases the slice List was given
// (with cap equal to len); ok is false if v is not a list.
func (v Value) AsList() ([]Value, bool) { return v.elems(), v.kind == KindList }

// AsRef returns the entity reference payload; ok is false if v is not a ref.
func (v Value) AsRef() (EntityID, bool) { return EntityID(v.word()), v.kind == KindRef }

// Numeric reports whether v is an int or float.
func (v Value) Numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for debugging and CLI output. Strings are quoted
// so that null, "null", and 0 are distinguishable.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.raw())
	case KindTime:
		t, _ := v.AsTime()
		return t.Format(time.RFC3339Nano)
	case KindBytes:
		return fmt.Sprintf("0x%x", v.raw())
	case KindList:
		es := v.elems()
		parts := make([]string, len(es))
		for i, e := range es {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindRef:
		return "@" + strconv.FormatInt(int64(v.n), 10)
	}
	return "?"
}

// Text renders the value as bare text, without quoting strings. It is the
// form used for similarity comparison and information extraction.
func (v Value) Text() string {
	if v.kind == KindString {
		return v.raw()
	}
	return v.String()
}

// IncomparableError is returned by Compare when two values have kinds that
// admit no meaningful order (for example a string and a list).
type IncomparableError struct {
	A, B Kind
}

func (e *IncomparableError) Error() string {
	return fmt.Sprintf("model: cannot compare %s with %s", e.A, e.B)
}

// Compare orders two non-null values. Ints and floats compare numerically
// across kinds; all other kinds compare only with themselves. Lists compare
// lexicographically. Comparing a null or incomparable kinds returns an
// error: per the paper's treatment of nulls, predicates over nulls must
// evaluate to Unknown, which is the caller's job (see Truth).
func Compare(a, b Value) (int, error) {
	if a.kind == KindNull || b.kind == KindNull {
		return 0, &IncomparableError{a.kind, b.kind}
	}
	if a.Numeric() && b.Numeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		}
		return 0, nil
	}
	if a.kind != b.kind {
		return 0, &IncomparableError{a.kind, b.kind}
	}
	switch a.kind {
	case KindBool, KindTime, KindRef:
		return cmp.Compare(int64(a.n), int64(b.n)), nil
	case KindString, KindBytes:
		return strings.Compare(a.raw(), b.raw()), nil
	case KindList:
		ae, be := a.elems(), b.elems()
		for i := range min(len(ae), len(be)) {
			c, err := Compare(ae[i], be[i])
			if err != nil {
				return 0, err
			}
			if c != 0 {
				return c, nil
			}
		}
		return cmp.Compare(len(ae), len(be)), nil
	}
	return 0, &IncomparableError{a.kind, b.kind}
}

// Equal reports whether two values are identical. Unlike Compare, Equal is
// total: nulls are equal to nulls, and two NaNs are equal (identity
// semantics, keeping Equal consistent with Hash for deduplication; SQL
// equality semantics live in the query layer via Truth).
func Equal(a, b Value) bool {
	if a.kind == KindNull && b.kind == KindNull {
		return true
	}
	if a.Numeric() && b.Numeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		if math.IsNaN(af) && math.IsNaN(bf) {
			return true
		}
		return af == bf
	}
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindBool, KindTime, KindRef:
		return a.n == b.n
	case KindString, KindBytes:
		return a.raw() == b.raw()
	case KindList:
		ae, be := a.elems(), b.elems()
		if len(ae) != len(be) {
			return false
		}
		for i := range ae {
			if !Equal(ae[i], be[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Less is a total order over values used for deterministic sorting of
// heterogeneous data: null sorts first, then by kind, then by Compare within
// comparable kinds.
func Less(a, b Value) bool {
	ra, rb := kindRank(a.kind), kindRank(b.kind)
	if ra != rb {
		return ra < rb
	}
	c, err := Compare(a, b)
	if err != nil {
		return false
	}
	return c < 0
}

// kindRank groups int and float into one rank so mixed numeric columns sort
// numerically.
func kindRank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	case KindTime:
		return 4
	case KindBytes:
		return 5
	case KindList:
		return 6
	case KindRef:
		return 7
	}
	return 8
}

// Hash returns a 64-bit FNV-1a hash of the value's canonical encoding,
// suitable for hash joins and deduplication. Equal values hash equally:
// ints and floats representing the same number, -0 and +0, and any two
// NaNs included.
func (v Value) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime }
	mix64 := func(x uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(x >> (8 * i)))
		}
	}
	switch v.kind {
	case KindNull:
		mix(0)
	case KindBool:
		mix(1)
		mix(byte(v.n))
	case KindInt, KindFloat:
		// Canonicalize numerics: hash the float64 bit pattern, one pattern
		// for both zeros and one for every NaN, since Equal says they match.
		f, _ := v.AsFloat()
		bits := math.Float64bits(f)
		switch {
		case f == 0:
			bits = 0
		case math.IsNaN(f):
			bits = 0x7FF8000000000001
		}
		mix(2)
		mix64(bits)
	case KindString:
		mix(3)
		for s, i := v.raw(), 0; i < len(s); i++ {
			mix(s[i])
		}
	case KindTime:
		mix(4)
		mix64(v.n)
	case KindBytes:
		mix(5)
		for s, i := v.raw(), 0; i < len(s); i++ {
			mix(s[i])
		}
	case KindList:
		mix(6)
		for _, e := range v.elems() {
			mix64(e.Hash())
		}
	case KindRef:
		mix(7)
		mix64(v.n)
	}
	return h
}

// Record is a flexible attribute map: the instance-layer representation of
// one data item from a possibly schema-less source. Attribute order is not
// significant; use Keys for deterministic iteration.
type Record map[string]Value

// Keys returns the record's attribute names in sorted order.
func (r Record) Keys() []string {
	return r.AppendKeys(make([]string, 0, len(r)))
}

// AppendKeys appends the record's attribute names to dst in sorted order
// and returns the extended slice. Given a buffer with room for them, such
// as a small array on the caller's stack, it allocates nothing.
func (r Record) AppendKeys(dst []string) []string {
	n := len(dst)
	for k := range r {
		dst = append(dst, k)
	}
	slices.Sort(dst[n:])
	return dst
}

// Clone returns a shallow copy of the record (values are immutable, so a
// shallow copy is safe).
func (r Record) Clone() Record {
	c := make(Record, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// Get returns the value for attribute k, or null if absent. Treating absent
// attributes as null is the open-world reading the paper requires.
func (r Record) Get(k string) Value {
	if v, ok := r[k]; ok {
		return v
	}
	return Null()
}

// Hash returns a hash of the whole record (order-independent).
func (r Record) Hash() uint64 {
	var h uint64
	for k, v := range r {
		h ^= String(k).Hash()*31 + v.Hash()
	}
	return h
}

// String renders the record deterministically for debugging.
func (r Record) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range r.Keys() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s: %s", k, r[k])
	}
	sb.WriteByte('}')
	return sb.String()
}
