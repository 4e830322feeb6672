package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary tuple serialization. The format is self-describing per value:
//
//	byte  kind
//	...   payload (kind-specific)
//
// Variable-length payloads (TEXT, UNITEXT) are length-prefixed with uvarint;
// a UNITEXT value is its language (u16, big-endian), text and phoneme. One
// encoder serves the wire protocol, the executor's hash keys and the heap's
// records: a record holds no filter keys, which the heap keeps in the row's
// slot (slot keys, keys.go). DecodeValue, DecodeTuple and the lazy readers
// (lazy.go) read it. Index keys have their own order-preserving encoding
// (keyenc.go).

// uniTextHeader is the width of a UNITEXT value's kind byte and language.
const uniTextHeader = 3

// AppendValue appends the binary encoding of v to buf and returns the
// extended slice.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool:
		if v.b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case KindInt:
		buf = binary.AppendVarint(buf, v.i)
	case KindFloat:
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v.f))
	case KindText:
		buf = appendString(buf, v.s)
	case KindUniText:
		buf = binary.BigEndian.AppendUint16(buf, uint16(v.lang))
		buf = appendString(buf, v.s)
		buf = appendString(buf, v.ph)
	default:
		panic(fmt.Sprintf("types: cannot encode kind %d", v.kind))
	}
	return buf
}

// DecodeValue decodes one value from buf, returning the value and the number
// of bytes consumed.
func DecodeValue(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return Value{}, 0, fmt.Errorf("types: decode value: empty buffer")
	}
	kind := Kind(buf[0])
	n := 1
	switch kind {
	case KindNull:
		return Null(), n, nil
	case KindBool:
		if len(buf) < n+1 {
			return Value{}, 0, fmt.Errorf("types: decode bool: short buffer")
		}
		return NewBool(buf[n] != 0), n + 1, nil
	case KindInt:
		i, sz := binary.Varint(buf[n:])
		if sz <= 0 {
			return Value{}, 0, fmt.Errorf("types: decode int: bad varint")
		}
		return NewInt(i), n + sz, nil
	case KindFloat:
		if len(buf) < n+8 {
			return Value{}, 0, fmt.Errorf("types: decode float: short buffer")
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(buf[n:]))
		return NewFloat(f), n + 8, nil
	case KindText:
		s, sz, err := decodeString(buf[n:])
		if err != nil {
			return Value{}, 0, fmt.Errorf("types: decode text: %w", err)
		}
		return NewText(s), n + sz, nil
	case KindUniText:
		n = uniTextHeader
		if len(buf) < n {
			return Value{}, 0, fmt.Errorf("types: decode unitext: short buffer")
		}
		lang := LangID(binary.BigEndian.Uint16(buf[1:]))
		text, sz, err := decodeString(buf[n:])
		if err != nil {
			return Value{}, 0, fmt.Errorf("types: decode unitext text: %w", err)
		}
		n += sz
		ph, sz2, err := decodeString(buf[n:])
		if err != nil {
			return Value{}, 0, fmt.Errorf("types: decode unitext phoneme: %w", err)
		}
		n += sz2
		return NewUniText(UniText{Text: text, Lang: lang, Phoneme: ph}), n, nil
	default:
		return Value{}, 0, fmt.Errorf("types: decode: unknown kind %d", kind)
	}
}

// EncodeTuple serializes a tuple with a leading uvarint column count.
func EncodeTuple(t Tuple) []byte { return AppendTuple(nil, t) }

// AppendTuple appends the serialization of t to buf.
func AppendTuple(buf []byte, t Tuple) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	for _, v := range t {
		buf = AppendValue(buf, v)
	}
	return buf
}

// DecodeTuple decodes a tuple, returning it and the number of bytes consumed.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	n64, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("types: decode tuple: bad column count")
	}
	if n64 > 1<<20 {
		return nil, 0, fmt.Errorf("types: decode tuple: absurd column count %d", n64)
	}
	n := sz
	t := make(Tuple, 0, n64)
	for i := uint64(0); i < n64; i++ {
		v, vn, err := DecodeValue(buf[n:])
		if err != nil {
			return nil, 0, fmt.Errorf("types: decode tuple col %d: %w", i, err)
		}
		t = append(t, v)
		n += vn
	}
	return t, n, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func decodeString(buf []byte) (string, int, error) {
	l, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return "", 0, fmt.Errorf("bad length prefix")
	}
	if uint64(len(buf)-sz) < l {
		return "", 0, fmt.Errorf("short buffer: want %d bytes, have %d", l, len(buf)-sz)
	}
	return string(buf[sz : sz+int(l)]), sz + int(l), nil
}
