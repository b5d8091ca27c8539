package model

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// refValue is the 88-byte layout Value had before it became three words: a
// field per payload, whatever the kind. It is the oracle of the tests below,
// which require every operation on a Value to answer exactly what the same
// operation answers on the refValue built from the same input. Its Hash
// carries the one intended change, canonical -0 and NaN.
type refValue struct {
	kind Kind
	i    int64 // bool (0/1), int, ref, time (UnixNano)
	f    float64
	s    string
	b    []byte
	list []refValue
}

func refBool(b bool) refValue {
	var i int64
	if b {
		i = 1
	}
	return refValue{kind: KindBool, i: i}
}

func (v refValue) AsBool() (b, ok bool)     { return v.i != 0, v.kind == KindBool }
func (v refValue) AsInt() (int64, bool)     { return v.i, v.kind == KindInt }
func (v refValue) AsString() (string, bool) { return v.s, v.kind == KindString }
func (v refValue) AsBytes() ([]byte, bool)  { return v.b, v.kind == KindBytes }
func (v refValue) AsList() ([]refValue, bool) {
	return v.list, v.kind == KindList
}
func (v refValue) AsRef() (EntityID, bool) { return EntityID(v.i), v.kind == KindRef }
func (v refValue) Numeric() bool           { return v.kind == KindInt || v.kind == KindFloat }

func (v refValue) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt:
		return float64(v.i), true
	}
	return 0, false
}

func (v refValue) AsTime() (time.Time, bool) {
	if v.kind != KindTime {
		return time.Time{}, false
	}
	return time.Unix(0, v.i).UTC(), true
}

func (v refValue) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindTime:
		t, _ := v.AsTime()
		return t.Format(time.RFC3339Nano)
	case KindBytes:
		return fmt.Sprintf("0x%x", v.b)
	case KindList:
		parts := make([]string, len(v.list))
		for i, e := range v.list {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindRef:
		return fmt.Sprintf("@%d", v.i)
	}
	return "?"
}

func (v refValue) Text() string {
	if v.kind == KindString {
		return v.s
	}
	return v.String()
}

func refCompare(a, b refValue) (int, error) {
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
		switch {
		case a.i < b.i:
			return -1, nil
		case a.i > b.i:
			return 1, nil
		}
		return 0, nil
	case KindString:
		return strings.Compare(a.s, b.s), nil
	case KindBytes:
		return strings.Compare(string(a.b), string(b.b)), nil
	case KindList:
		n := min(len(a.list), len(b.list))
		for i := 0; i < n; i++ {
			c, err := refCompare(a.list[i], b.list[i])
			if err != nil {
				return 0, err
			}
			if c != 0 {
				return c, nil
			}
		}
		switch {
		case len(a.list) < len(b.list):
			return -1, nil
		case len(a.list) > len(b.list):
			return 1, nil
		}
		return 0, nil
	}
	return 0, &IncomparableError{a.kind, b.kind}
}

func refEqual(a, b refValue) bool {
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
		return a.i == b.i
	case KindString:
		return a.s == b.s
	case KindBytes:
		return string(a.b) == string(b.b)
	case KindList:
		if len(a.list) != len(b.list) {
			return false
		}
		for i := range a.list {
			if !refEqual(a.list[i], b.list[i]) {
				return false
			}
		}
		return true
	}
	return false
}

func refLess(a, b refValue) bool {
	ra, rb := a.kind.Rank(), b.kind.Rank()
	if ra != rb {
		return ra < rb
	}
	c, err := refCompare(a, b)
	if err != nil {
		return false
	}
	return c < 0
}

func (v refValue) Hash() uint64 {
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
		mix(byte(v.i))
	case KindInt, KindFloat:
		// Canonicalize numerics: hash the float64 bit pattern, with one
		// pattern for both zeros and one for every NaN (the fix).
		f, _ := v.AsFloat()
		bits := math.Float64bits(f)
		if f == 0 {
			bits = 0
		} else if math.IsNaN(f) {
			bits = math.Float64bits(math.NaN())
		}
		mix(2)
		mix64(bits)
	case KindString:
		mix(3)
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	case KindTime:
		mix(4)
		mix64(uint64(v.i))
	case KindBytes:
		mix(5)
		for _, b := range v.b {
			mix(b)
		}
	case KindList:
		mix(6)
		for _, e := range v.list {
			mix64(e.Hash())
		}
	case KindRef:
		mix(7)
		mix64(uint64(v.i))
	}
	return h
}

func refAppendValue(dst []byte, v refValue) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool:
		dst = append(dst, byte(v.i))
	case KindInt, KindTime, KindRef:
		dst = binary.AppendVarint(dst, v.i)
	case KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.f))
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	case KindBytes:
		dst = binary.AppendUvarint(dst, uint64(len(v.b)))
		dst = append(dst, v.b...)
	case KindList:
		dst = binary.AppendUvarint(dst, uint64(len(v.list)))
		for _, e := range v.list {
			dst = refAppendValue(dst, e)
		}
	}
	return dst
}

func refDecodeValue(buf []byte) (refValue, int, error) {
	if len(buf) == 0 {
		return refValue{}, 0, fmt.Errorf("model: decode value: empty buffer")
	}
	k := Kind(buf[0])
	pos := 1
	switch k {
	case KindNull:
		return refValue{}, pos, nil
	case KindBool:
		if len(buf) < 2 {
			return refValue{}, 0, fmt.Errorf("model: decode bool: short buffer")
		}
		return refBool(buf[1] != 0), 2, nil
	case KindInt, KindTime, KindRef:
		i, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return refValue{}, 0, fmt.Errorf("model: decode varint: malformed")
		}
		return refValue{kind: k, i: i}, pos + n, nil
	case KindFloat:
		if len(buf) < pos+8 {
			return refValue{}, 0, fmt.Errorf("model: decode float: short buffer")
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(buf[pos:]))
		return refValue{kind: KindFloat, f: f}, pos + 8, nil
	case KindString, KindBytes:
		l, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return refValue{}, 0, fmt.Errorf("model: decode length: malformed")
		}
		pos += n
		if uint64(len(buf)-pos) < l {
			return refValue{}, 0, fmt.Errorf("model: decode payload: short buffer (want %d have %d)", l, len(buf)-pos)
		}
		payload := buf[pos : pos+int(l)]
		pos += int(l)
		if k == KindString {
			return refValue{kind: KindString, s: string(payload)}, pos, nil
		}
		return refValue{kind: KindBytes, b: append([]byte(nil), payload...)}, pos, nil
	case KindList:
		l, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return refValue{}, 0, fmt.Errorf("model: decode list length: malformed")
		}
		pos += n
		if l > uint64(len(buf)-pos) {
			return refValue{}, 0, fmt.Errorf("model: decode list: length %d exceeds buffer", l)
		}
		elems := make([]refValue, 0, l)
		for i := uint64(0); i < l; i++ {
			e, n, err := refDecodeValue(buf[pos:])
			if err != nil {
				return refValue{}, 0, fmt.Errorf("model: decode list elem %d: %w", i, err)
			}
			elems = append(elems, e)
			pos += n
		}
		return refValue{kind: KindList, list: elems}, pos, nil
	}
	return refValue{}, 0, fmt.Errorf("model: decode: unknown kind %d", k)
}

// genPair builds one input as both a Value and a refValue. Every kind is
// drawn, with the edges weighted up: ±0, NaNs with different payloads, ±Inf,
// integers past 2^53, empty and invalid-UTF-8 strings, nil against empty
// bytes and lists, bytes whose slice has spare capacity, and nested lists.
func genPair(r *rand.Rand, depth int) (Value, refValue) {
	k := Kind(r.Intn(9))
	if depth <= 0 && k == KindList {
		k = KindInt
	}
	switch k {
	case KindNull:
		return Null(), refValue{}
	case KindBool:
		b := r.Intn(2) == 1
		return Bool(b), refBool(b)
	case KindInt:
		i := []int64{0, 1, -1, 2, math.MinInt64, math.MaxInt64, 1 << 53, 1<<53 + 1, r.Int63() - r.Int63()}[r.Intn(9)]
		return Int(i), refValue{kind: KindInt, i: i}
	case KindFloat:
		f := []float64{
			0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7FF0000000000001),
			math.Float64frombits(0xFFF8000000000000 | r.Uint64()>>13), math.Inf(1), math.Inf(-1),
			1, 2, -1.5, 1 << 53, math.MaxFloat64, math.SmallestNonzeroFloat64,
			r.NormFloat64() * 1e6, math.Float64frombits(r.Uint64()),
		}[r.Intn(15)]
		return Float(f), refValue{kind: KindFloat, f: f}
	case KindString:
		var s string
		switch r.Intn(4) {
		case 0:
			s = ""
		case 1:
			s = string([]byte{0xff, 'a', 0xc3})
		case 2:
			s = "größe"
		default:
			b := make([]byte, r.Intn(20))
			for i := range b {
				b[i] = byte('a' + r.Intn(3))
			}
			s = string(b)
		}
		return String(s), refValue{kind: KindString, s: s}
	case KindTime:
		t := time.Unix(0, r.Int63()-r.Int63())
		return Time(t), refValue{kind: KindTime, i: t.UnixNano()}
	case KindBytes:
		var b []byte
		switch r.Intn(4) {
		case 0: // nil
		case 1:
			b = []byte{}
		case 2:
			b = make([]byte, r.Intn(4), 8)
			r.Read(b)
		default:
			b = make([]byte, r.Intn(16))
			for i := range b {
				b[i] = byte(r.Intn(3))
			}
		}
		return Bytes(b), refValue{kind: KindBytes, b: b}
	case KindList:
		var vs []Value
		var rs []refValue
		switch n := r.Intn(5); n {
		case 0: // nil
		case 1:
			vs, rs = []Value{}, []refValue{}
		default:
			for range n - 1 {
				v, rv := genPair(r, depth-1)
				vs, rs = append(vs, v), append(rs, rv)
			}
		}
		return List(vs...), refValue{kind: KindList, list: rs}
	default:
		id := EntityID(r.Uint64() >> uint(r.Intn(64)))
		return Ref(id), refValue{kind: KindRef, i: int64(id)}
	}
}

// sameValue fails t unless every single-value operation answers alike on
// v and rv, the wrong-kind accessor calls included.
func sameValue(t *testing.T, v Value, rv refValue) {
	t.Helper()
	if v.Kind() != rv.kind || v.IsNull() != (rv.kind == KindNull) || v.Numeric() != rv.Numeric() {
		t.Fatalf("%s: kind %s, reference %s", rv, v.Kind(), rv.kind)
	}
	bo, ok := v.AsBool()
	if rbo, rok := rv.AsBool(); bo != rbo || ok != rok {
		t.Fatalf("%s: AsBool %v %v", rv, bo, ok)
	}
	i, ok := v.AsInt()
	if ri, rok := rv.AsInt(); i != ri || ok != rok {
		t.Fatalf("%s: AsInt %d %v", rv, i, ok)
	}
	id, ok := v.AsRef()
	if rid, rok := rv.AsRef(); id != rid || ok != rok {
		t.Fatalf("%s: AsRef %d %v", rv, id, ok)
	}
	f, ok := v.AsFloat()
	if rf, rok := rv.AsFloat(); math.Float64bits(f) != math.Float64bits(rf) || ok != rok {
		t.Fatalf("%s: AsFloat %v %v, reference %v %v", rv, f, ok, rf, rok)
	}
	str, ok := v.AsString()
	if rstr, rok := rv.AsString(); str != rstr || ok != rok {
		t.Fatalf("%s: AsString %q %v", rv, str, ok)
	}
	tm, ok := v.AsTime()
	if rtm, rok := rv.AsTime(); tm != rtm || ok != rok {
		t.Fatalf("%s: AsTime %v %v, reference %v %v", rv, tm, ok, rtm, rok)
	}
	b, ok := v.AsBytes()
	if rb, rok := rv.AsBytes(); (b == nil) != (rb == nil) || !bytes.Equal(b, rb) || ok != rok || cap(b) != len(b) {
		t.Fatalf("%s: AsBytes %x (nil %v, cap %d) %v", rv, b, b == nil, cap(b), ok)
	}
	l, ok := v.AsList()
	rl, rok := rv.AsList()
	if (l == nil) != (rl == nil) || len(l) != len(rl) || ok != rok || cap(l) != len(l) {
		t.Fatalf("%s: AsList len %d (nil %v, cap %d) %v", rv, len(l), l == nil, cap(l), ok)
	}
	for i := range l {
		sameValue(t, l[i], rl[i])
	}
	if v.Hash() != rv.Hash() {
		t.Fatalf("%s: Hash %x, reference %x", rv, v.Hash(), rv.Hash())
	}
	if v.String() != rv.String() || v.Text() != rv.Text() {
		t.Fatalf("%s: String %s Text %s, reference Text %s", rv, v, v.Text(), rv.Text())
	}
	if enc, renc := AppendValue(nil, v), refAppendValue(nil, rv); !bytes.Equal(enc, renc) {
		t.Fatalf("%s: AppendValue % x, reference % x", rv, enc, renc)
	}
}

// samePair fails t unless Compare, Equal and Less answer alike on (a, b)
// and (ra, rb), and Equal values hash alike.
func samePair(t *testing.T, a, b Value, ra, rb refValue) {
	t.Helper()
	c, err := Compare(a, b)
	rc, rerr := refCompare(ra, rb)
	if c != rc || fmt.Sprint(err) != fmt.Sprint(rerr) {
		t.Fatalf("Compare(%s, %s) = %d %v, reference %d %v", ra, rb, c, err, rc, rerr)
	}
	if Equal(a, b) != refEqual(ra, rb) || Less(a, b) != refLess(ra, rb) {
		t.Fatalf("Equal/Less(%s, %s) = %v/%v, reference %v/%v", ra, rb, Equal(a, b), Less(a, b), refEqual(ra, rb), refLess(ra, rb))
	}
	if Equal(a, b) && a.Hash() != b.Hash() {
		t.Fatalf("Equal(%s, %s) but hashes differ", ra, rb)
	}
}

// TestValueMatchesReference is the representation oracle: seeded inputs of
// every kind, each built as a Value and as the old 88-byte refValue, must
// answer every operation bit for bit alike. Half the pairs are built twice
// from one seed, so equal contents sit in different memory.
func TestValueMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20000; seed++ {
		a, ra := genPair(rand.New(rand.NewSource(seed)), 3)
		sameValue(t, a, ra)
		bseed := seed
		if seed%2 == 1 {
			bseed = seed*7919 + 1
		}
		b, rb := genPair(rand.New(rand.NewSource(bseed)), 3)
		samePair(t, a, b, ra, rb)
		samePair(t, b, a, rb, ra)
	}
}

// FuzzValueMatchesReference decodes two values from the input with both
// layouts' decoders, which must agree byte for byte, and holds the pair to
// the same oracle as TestValueMatchesReference.
func FuzzValueMatchesReference(f *testing.F) {
	seed := []byte{}
	for _, v := range []Value{
		Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(-1)), Int(0),
		String(""), String("\xff"), Bytes(nil), List(), List(List(Int(1)), Null()), Ref(1 << 63),
		Time(time.Unix(-1, 0)), Bool(true),
	} {
		seed = AppendValue(seed, v)
		f.Add(AppendValue(nil, v))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var vs []Value
		var rs []refValue
		for len(data) > 0 && len(vs) < 2 {
			v, n, err := DecodeValue(data)
			rv, rn, rerr := refDecodeValue(data)
			if n != rn || fmt.Sprint(err) != fmt.Sprint(rerr) {
				t.Fatalf("decode: %d %v, reference %d %v", n, err, rn, rerr)
			}
			if err != nil {
				return
			}
			sameValue(t, v, rv)
			vs, rs, data = append(vs, v), append(rs, rv), data[n:]
		}
		if len(vs) == 2 {
			samePair(t, vs[0], vs[1], rs[0], rs[1])
			samePair(t, vs[1], vs[0], rs[1], rs[0])
		}
	})
}

// TestValueIsThreeWords pins the layout this package is built around.
func TestValueIsThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("Value is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(refValue{}); got != 88 {
		t.Errorf("refValue is %d bytes, want the old layout's 88", got)
	}
}
