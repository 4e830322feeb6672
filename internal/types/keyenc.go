package types

import (
	"encoding/binary"
	"math"
)

// Order-preserving key encoding for index keys: for any two values a, b of
// the same comparison class, bytes.Compare(EncodeKey(a), EncodeKey(b)) has
// the same sign as Compare(a, b). The B-tree and the MDI index both rely on
// this property.
//
// Layout: a class tag byte (so NULL < bool < numeric < text holds across
// kinds), followed by a class-specific payload:
//
//	NULL:    tag only
//	BOOL:    tag, 0/1
//	numeric: tag, 8-byte big-endian IEEE-754 with sign-flip trick
//	text:    tag, raw bytes (UNITEXT encodes its Text component, since
//	         Compare orders UNITEXT by text only)
const (
	keyTagNull    = 0x10
	keyTagBool    = 0x20
	keyTagNumeric = 0x30
	keyTagText    = 0x40
)

// EncodeKey appends the order-preserving encoding of v to dst.
func EncodeKey(dst []byte, v Value) []byte {
	switch v.Kind() {
	case KindNull:
		return append(dst, keyTagNull)
	case KindBool:
		dst = append(dst, keyTagBool)
		if v.Bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	case KindInt, KindFloat:
		dst = append(dst, keyTagNumeric)
		bits := math.Float64bits(v.Float())
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip all bits
		} else {
			bits |= 1 << 63 // non-negative: flip the sign bit
		}
		return binary.BigEndian.AppendUint64(dst, bits)
	case KindText, KindUniText:
		dst = append(dst, keyTagText)
		return append(dst, v.Text()...)
	default:
		panic("types: EncodeKey: unreachable kind")
	}
}

// KeyOf is the single-value convenience form of EncodeKey.
func KeyOf(v Value) []byte { return EncodeKey(nil, v) }

// NumberOfKey is the value of key, a numeric key EncodeKey made; ok=false
// for any other key.
func NumberOfKey(key []byte) (f float64, ok bool) {
	if len(key) != 9 || key[0] != keyTagNumeric {
		return 0, false
	}
	bits := binary.BigEndian.Uint64(key[1:])
	if bits&(1<<63) != 0 {
		bits &^= 1 << 63 // non-negative: the sign bit was flipped
	} else {
		bits = ^bits // negative: every bit was flipped
	}
	return math.Float64frombits(bits), true
}
