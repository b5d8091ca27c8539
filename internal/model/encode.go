package model

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding for values and records, used by the storage layer's
// append-only log and snapshots. The format is a compact tag-length-value
// scheme: one kind byte followed by a kind-specific payload with varint
// lengths. It is self-delimiting, so values can be concatenated.

// SmallRecord is the width up to which a record's attribute names are
// sorted in a stack array rather than a fresh slice.
const SmallRecord = 16

// AppendValue appends the binary encoding of v to dst and returns the
// extended slice.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool:
		dst = append(dst, byte(v.n))
	case KindInt, KindTime, KindRef:
		dst = binary.AppendVarint(dst, int64(v.n))
	case KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, v.n)
	case KindString, KindBytes:
		dst = binary.AppendUvarint(dst, v.n)
		dst = append(dst, v.raw()...)
	case KindList:
		dst = binary.AppendUvarint(dst, v.n)
		for _, e := range v.elems() {
			dst = AppendValue(dst, e)
		}
	}
	return dst
}

// DecodeValue decodes one value from the front of buf, returning the value
// and the number of bytes consumed.
func DecodeValue(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return Value{}, 0, fmt.Errorf("model: decode value: empty buffer")
	}
	k := Kind(buf[0])
	pos := 1
	switch k {
	case KindNull:
		return Null(), pos, nil
	case KindBool:
		if len(buf) < 2 {
			return Value{}, 0, fmt.Errorf("model: decode bool: short buffer")
		}
		return Bool(buf[1] != 0), 2, nil
	case KindInt, KindTime, KindRef:
		i, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("model: decode varint: malformed")
		}
		return Value{kind: k, n: uint64(i)}, pos + n, nil
	case KindFloat:
		if len(buf) < pos+8 {
			return Value{}, 0, fmt.Errorf("model: decode float: short buffer")
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(buf[pos:]))
		return Float(f), pos + 8, nil
	case KindString, KindBytes:
		l, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("model: decode length: malformed")
		}
		pos += n
		if uint64(len(buf)-pos) < l {
			return Value{}, 0, fmt.Errorf("model: decode payload: short buffer (want %d have %d)", l, len(buf)-pos)
		}
		payload := buf[pos : pos+int(l)]
		pos += int(l)
		if k == KindString {
			return String(string(payload)), pos, nil
		}
		return Bytes(append([]byte(nil), payload...)), pos, nil
	case KindList:
		l, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("model: decode list length: malformed")
		}
		pos += n
		// Every element needs at least one byte: a length exceeding the
		// remaining buffer is corrupt, and must not drive the allocation.
		if l > uint64(len(buf)-pos) {
			return Value{}, 0, fmt.Errorf("model: decode list: length %d exceeds buffer", l)
		}
		elems := make([]Value, 0, l)
		for i := uint64(0); i < l; i++ {
			e, n, err := DecodeValue(buf[pos:])
			if err != nil {
				return Value{}, 0, fmt.Errorf("model: decode list elem %d: %w", i, err)
			}
			elems = append(elems, e)
			pos += n
		}
		return List(elems...), pos, nil
	}
	return Value{}, 0, fmt.Errorf("model: decode: unknown kind %d", k)
}

// AppendRecord appends the binary encoding of r to dst: a uvarint field
// count followed by (name, value) pairs in sorted-key order, so encodings
// are canonical and hashable. The names of a record of up to
// SmallRecord attributes are sorted on the stack, so encoding one into a
// buffer with room for it allocates nothing.
func AppendRecord(dst []byte, r Record) []byte {
	var buf [SmallRecord]string
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, k := range r.AppendKeys(buf[:0]) {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = AppendValue(dst, r[k])
	}
	return dst
}

// DecodeRecord decodes one record from the front of buf, returning the
// record and the number of bytes consumed.
func DecodeRecord(buf []byte) (Record, int, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 {
		return nil, 0, fmt.Errorf("model: decode record: malformed count")
	}
	pos := used
	// Every field needs at least two bytes (key length + kind byte).
	if n > uint64(len(buf)-pos)/2 {
		return nil, 0, fmt.Errorf("model: decode record: count %d exceeds buffer", n)
	}
	r := make(Record, n)
	for i := uint64(0); i < n; i++ {
		l, used := binary.Uvarint(buf[pos:])
		if used <= 0 {
			return nil, 0, fmt.Errorf("model: decode record key %d: malformed length", i)
		}
		pos += used
		if uint64(len(buf)-pos) < l {
			return nil, 0, fmt.Errorf("model: decode record key %d: short buffer", i)
		}
		key := string(buf[pos : pos+int(l)])
		pos += int(l)
		v, used2, err := DecodeValue(buf[pos:])
		if err != nil {
			return nil, 0, fmt.Errorf("model: decode record value for %q: %w", key, err)
		}
		pos += used2
		r[key] = v
	}
	return r, pos, nil
}
