package model

import (
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindInt: "int", KindFloat: "float",
		KindString: "string", KindTime: "time", KindBytes: "bytes",
		KindList: "list", KindRef: "ref",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	now := time.Date(2016, 3, 15, 12, 0, 0, 123, time.UTC)
	tests := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Bool(true), KindBool},
		{Int(-42), KindInt},
		{Float(3.5), KindFloat},
		{String("warfarin"), KindString},
		{Time(now), KindTime},
		{Bytes([]byte{1, 2}), KindBytes},
		{List(Int(1), String("x")), KindList},
		{Ref(7), KindRef},
	}
	for _, tt := range tests {
		if tt.v.Kind() != tt.kind {
			t.Errorf("%v: kind = %v, want %v", tt.v, tt.v.Kind(), tt.kind)
		}
	}
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("AsBool(true) failed")
	}
	if i, ok := Int(-42).AsInt(); !ok || i != -42 {
		t.Error("AsInt(-42) failed")
	}
	if f, ok := Float(3.5).AsFloat(); !ok || f != 3.5 {
		t.Error("AsFloat(3.5) failed")
	}
	if f, ok := Int(2).AsFloat(); !ok || f != 2.0 {
		t.Error("AsFloat on int failed: ints must coerce to float")
	}
	if s, ok := String("warfarin").AsString(); !ok || s != "warfarin" {
		t.Error("AsString failed")
	}
	if got, ok := Time(now).AsTime(); !ok || !got.Equal(now) {
		t.Errorf("AsTime = %v, want %v", got, now)
	}
	if b, ok := Bytes([]byte{1, 2}).AsBytes(); !ok || len(b) != 2 {
		t.Error("AsBytes failed")
	}
	if l, ok := List(Int(1)).AsList(); !ok || len(l) != 1 {
		t.Error("AsList failed")
	}
	if id, ok := Ref(7).AsRef(); !ok || id != 7 {
		t.Error("AsRef failed")
	}
	if _, ok := String("x").AsInt(); ok {
		t.Error("AsInt on string must fail")
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull misbehaves")
	}
}

func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Null(), "null"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(5), "5"},
		{Float(2.5), "2.5"},
		{String(`a"b`), `"a\"b"`},
		{Bytes([]byte{0xab}), "0xab"},
		{List(Int(1), Int(2)), "[1, 2]"},
		{Ref(9), "@9"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
	if got := String("plain").Text(); got != "plain" {
		t.Errorf("Text() = %q, want unquoted", got)
	}
}

func TestCompare(t *testing.T) {
	lt := []struct{ a, b Value }{
		{Int(1), Int(2)},
		{Int(1), Float(1.5)},
		{Float(0.5), Int(1)},
		{String("a"), String("b")},
		{Bool(false), Bool(true)},
		{Bytes([]byte("a")), Bytes([]byte("b"))},
		{Ref(1), Ref(2)},
		{Time(time.Unix(0, 1)), Time(time.Unix(0, 2))},
		{List(Int(1)), List(Int(1), Int(0))},
		{List(Int(1)), List(Int(2))},
	}
	for _, tt := range lt {
		c, err := Compare(tt.a, tt.b)
		if err != nil || c != -1 {
			t.Errorf("Compare(%v,%v) = %d,%v; want -1", tt.a, tt.b, c, err)
		}
		c, err = Compare(tt.b, tt.a)
		if err != nil || c != 1 {
			t.Errorf("Compare(%v,%v) = %d,%v; want 1", tt.b, tt.a, c, err)
		}
	}
	if c, err := Compare(Int(3), Float(3)); err != nil || c != 0 {
		t.Errorf("numeric cross-kind equality broken: %d %v", c, err)
	}
	for _, tt := range []struct{ a, b Value }{
		{Null(), Int(1)},
		{Int(1), Null()},
		{String("x"), Int(1)},
		{List(Int(1)), List(String("s"))},
		{Bool(true), String("true")},
	} {
		if _, err := Compare(tt.a, tt.b); err == nil {
			t.Errorf("Compare(%v,%v) should be incomparable", tt.a, tt.b)
		}
	}
}

func TestEqualTotal(t *testing.T) {
	if !Equal(Null(), Null()) {
		t.Error("null must Equal null")
	}
	if Equal(Null(), Int(0)) {
		t.Error("null must not Equal 0")
	}
	if !Equal(Int(2), Float(2.0)) {
		t.Error("2 must Equal 2.0")
	}
	if !Equal(List(Int(1), String("a")), List(Int(1), String("a"))) {
		t.Error("equal lists must Equal")
	}
	if Equal(List(Int(1)), List(Int(1), Int(2))) {
		t.Error("different-length lists must not Equal")
	}
	if !Equal(Bytes([]byte("xy")), Bytes([]byte("xy"))) {
		t.Error("equal bytes must Equal")
	}
}

func TestLessTotalOrder(t *testing.T) {
	// null < bool < numeric < string < time < bytes < list < ref
	ordered := []Value{
		Null(), Bool(false), Bool(true), Int(1), Float(1.5), Int(2),
		String("a"), Time(time.Unix(1, 0)), Bytes([]byte("b")),
		List(Int(1)), Ref(3),
	}
	for i := 0; i < len(ordered); i++ {
		for j := i + 1; j < len(ordered); j++ {
			if !Less(ordered[i], ordered[j]) {
				t.Errorf("want %v < %v", ordered[i], ordered[j])
			}
			if Less(ordered[j], ordered[i]) {
				t.Errorf("want !(%v < %v)", ordered[j], ordered[i])
			}
		}
	}
}

// TestSideFollowsLess: along values sorted by Less (no NaN, no list), Side
// against any literal never decreases and is Compare inside the literal's
// class, so one binary search per accepted side finds what Sides names,
// and an operator accepts exactly what the evaluator's Compare does.
func TestSideFollowsLess(t *testing.T) {
	ordered := []Value{
		Bool(false), Bool(true), Float(math.Inf(-1)), Int(-3), Float(math.Copysign(0, -1)), Int(0),
		Float(1.5), Int(2), String(""), String("a"), String("b"), Time(time.Unix(1, 0)),
		Time(time.Unix(2, 0)), Bytes([]byte("a")), Ref(1), Ref(3),
	}
	lits := append(slices.Clone(ordered), Float(math.NaN()), List(Int(1)))
	for _, lit := range lits {
		prev := -2
		for _, v := range ordered {
			s := Side(v, lit)
			if s < prev {
				t.Errorf("Side(%v, %v) = %d after %d", v, lit, s, prev)
			}
			prev = s
			c, err := Compare(v, lit)
			if (err == nil) != (s > -2 && s < 2) || err == nil && c != s {
				t.Errorf("Side(%v, %v) = %d, Compare %d, %v", v, lit, s, c, err)
			}
			for _, op := range []string{"=", "<", "<=", ">", ">="} {
				lo, hi := Sides(op)
				want := err == nil && map[string]bool{"=": c == 0, "<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0}[op]
				if got := lo <= s && s < hi; got != want {
					t.Errorf("%v %s %v: Sides accepts %v, Compare %v", v, op, lit, got, want)
				}
			}
		}
	}
}

func TestHashEqualValuesHashEqual(t *testing.T) {
	pairs := []struct{ a, b Value }{
		{Int(5), Float(5)},
		{String("x"), String("x")},
		{List(Int(1), Int(2)), List(Int(1), Float(2))},
		{Float(0), Float(math.Copysign(0, -1))},
		{Int(0), Float(math.Copysign(0, -1))},
		{Float(math.NaN()), Float(math.Float64frombits(0x7FF0000000000001))},
		{Float(math.NaN()), Float(math.Float64frombits(0xFFF8000000000000))},
		{List(Float(math.Copysign(0, -1))), List(Int(0))},
	}
	for _, p := range pairs {
		if !Equal(p.a, p.b) {
			t.Fatalf("%v and %v are not Equal", p.a, p.b)
		}
		if p.a.Hash() != p.b.Hash() {
			t.Errorf("Hash(%v) != Hash(%v) though Equal", p.a, p.b)
		}
	}
	if Int(1).Hash() == Int(2).Hash() {
		t.Error("suspicious: Hash(1) == Hash(2)")
	}
	if String("").Hash() == Null().Hash() {
		t.Error("empty string must not collide with null")
	}
}

// TestAppendValueGolden pins the canonical encoding of every kind: the WAL,
// snapshots and the wire hold these bytes, so no layout change may move them.
func TestAppendValueGolden(t *testing.T) {
	for _, tt := range []struct {
		v    Value
		want string
	}{
		{Null(), "00"},
		{Bool(true), "0101"},
		{Bool(false), "0100"},
		{Int(-42), "0253"},
		{Int(300), "02d804"},
		{Float(1.5), "033ff8000000000000"},
		{Float(math.Copysign(0, -1)), "038000000000000000"},
		{Float(math.Float64frombits(0x7FF0000000000001)), "037ff0000000000001"},
		{String("hé"), "040368c3a9"},
		{String(""), "0400"},
		{Time(time.Unix(1, 0)), "0580a8d6b907"},
		{Bytes([]byte{0xab, 0xcd}), "0602abcd"},
		{Bytes(nil), "0600"},
		{List(Int(1), Null()), "0702020200"},
		{List(), "0700"},
		{Ref(7), "080e"},
	} {
		if got := hex.EncodeToString(AppendValue(nil, tt.v)); got != tt.want {
			t.Errorf("AppendValue(%v) = %s, want %s", tt.v, got, tt.want)
		}
	}
}

// TestPayloadAliasing: Bytes and List keep the caller's slice, as they
// always have, and the accessors hand it back capped at its length, so an
// append to the result can never write into the caller's spare capacity.
func TestPayloadAliasing(t *testing.T) {
	b := make([]byte, 2, 8)
	got, _ := Bytes(b).AsBytes()
	if &got[0] != &b[0] || len(got) != 2 || cap(got) != 2 {
		t.Errorf("AsBytes: alias %v len %d cap %d", &got[0] == &b[0], len(got), cap(got))
	}
	vs := make([]Value, 1, 4)
	l, _ := List(vs...).AsList()
	if &l[0] != &vs[0] || len(l) != 1 || cap(l) != 1 {
		t.Errorf("AsList: alias %v len %d cap %d", &l[0] == &vs[0], len(l), cap(l))
	}
	if b, _ := Bytes(nil).AsBytes(); b != nil {
		t.Error("nil bytes must stay nil")
	}
	if b, _ := Bytes([]byte{}).AsBytes(); b == nil {
		t.Error("empty bytes must stay non-nil")
	}
	if l, _ := List().AsList(); l != nil {
		t.Error("an empty argument list must stay nil")
	}
	if l, _ := List([]Value{}...).AsList(); l == nil {
		t.Error("an empty slice must stay non-nil")
	}
}

// randomValue builds a random value of bounded depth for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(9)
	if depth <= 0 && k == int(KindList) {
		k = int(KindInt)
	}
	switch Kind(k) {
	case KindNull:
		return Null()
	case KindBool:
		return Bool(r.Intn(2) == 1)
	case KindInt:
		return Int(r.Int63() - r.Int63())
	case KindFloat:
		return Float(r.NormFloat64() * 1e6)
	case KindString:
		b := make([]byte, r.Intn(20))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return String(string(b))
	case KindTime:
		return Time(time.Unix(0, r.Int63n(1<<50)).UTC())
	case KindBytes:
		b := make([]byte, r.Intn(16))
		r.Read(b)
		return Bytes(b)
	case KindList:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return List(elems...)
	default:
		return Ref(EntityID(r.Uint64() % 1e6))
	}
}

func TestPropertyEncodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		enc := AppendValue(nil, v)
		got, n, err := DecodeValue(enc)
		if err != nil || n != len(enc) {
			t.Logf("decode(%v): n=%d len=%d err=%v", v, n, len(enc), err)
			return false
		}
		return Equal(v, got) && v.Hash() == got.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCompareAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r, 2), randomValue(r, 2)
		ca, errA := Compare(a, b)
		cb, errB := Compare(b, a)
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		return ca == -cb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEqualConsistentWithCompare(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r, 2), randomValue(r, 2)
		c, err := Compare(a, b)
		if err != nil {
			return true
		}
		if c == 0 {
			// NaN payloads break this; exclude them.
			if fa, ok := a.AsFloat(); ok && math.IsNaN(fa) {
				return true
			}
			return Equal(a, b)
		}
		return !Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyHashRespectsEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		return v.Hash() == v.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		{},
		{byte(KindBool)},
		{byte(KindFloat), 1, 2},
		{byte(KindString), 5, 'a'},
		{byte(KindList), 2, byte(KindInt)},
		{42},
	}
	for _, b := range bad {
		if _, _, err := DecodeValue(b); err == nil {
			t.Errorf("DecodeValue(% x) should fail", b)
		}
	}
}

func TestRecordBasics(t *testing.T) {
	r := Record{"b": Int(2), "a": Int(1), "z": Null()}
	if !reflect.DeepEqual(r.Keys(), []string{"a", "b", "z"}) {
		t.Errorf("Keys = %v", r.Keys())
	}
	if got := r.Get("a"); !Equal(got, Int(1)) {
		t.Errorf("Get(a) = %v", got)
	}
	if got := r.Get("missing"); !got.IsNull() {
		t.Errorf("Get(missing) = %v, want null", got)
	}
	c := r.Clone()
	c["a"] = Int(9)
	if !Equal(r.Get("a"), Int(1)) {
		t.Error("Clone must not alias")
	}
	if r.String() != `{a: 1, b: 2, z: null}` {
		t.Errorf("String = %s", r.String())
	}
}

func TestRecordHashOrderIndependent(t *testing.T) {
	a := Record{"x": Int(1), "y": String("s")}
	b := Record{"y": String("s"), "x": Int(1)}
	if a.Hash() != b.Hash() {
		t.Error("record hash must be order independent")
	}
	c := Record{"x": Int(2), "y": String("s")}
	if a.Hash() == c.Hash() {
		t.Error("suspicious record hash collision")
	}
}

func TestRecordEncodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rec := Record{}
		for i := 0; i < r.Intn(8); i++ {
			rec[string(rune('a'+i))] = randomValue(r, 2)
		}
		enc := AppendRecord(nil, rec)
		got, n, err := DecodeRecord(enc)
		if err != nil || n != len(enc) || len(got) != len(rec) {
			return false
		}
		for k, v := range rec {
			if !Equal(got[k], v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
