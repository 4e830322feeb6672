package types

import (
	"encoding/binary"
	"fmt"
)

// Lazy field access over encoded tuples. The executor's fused scan kernels
// evaluate predicates against raw heap records without materializing a
// Tuple: a SkipPlan, compiled once per scan from the table's declared column
// kinds, walks a record to the predicate's column (Offset, or Seek where
// Offset declines), and UniTextViews and TextView expose a value's payload
// as byte views that alias the record buffer. A UNITEXT value's filter keys
// are not in the record: the heap slot holds them (SlotKeys). Nothing here
// allocates.

// SkipPlan reaches one column of an encoded tuple. What depends only on the
// schema is decided when the plan is built — which columns precede the
// target and what each is declared to hold — so the per-record walk steps
// over a value of its declared kind with a couple of byte compares and
// sizes generically only what the declaration does not predict (a NULL, a
// UNITEXT, a string of 0x80 bytes or more, a kind the schema did not promise).
type SkipPlan struct {
	// before holds the declared kind of every column ahead of the target.
	before []Kind
	// ints is how many INT columns Offset steps over: all of before when
	// every one of them is declared INT, else 0x7F, which no one-byte
	// column count exceeds, so Offset declines every record.
	ints int
}

// NewSkipPlan compiles the walk to column idx of a table whose columns are
// declared with the given kinds. ok=false when idx is not one of them.
func NewSkipPlan(kinds []Kind, idx int) (SkipPlan, bool) {
	if idx < 0 || idx >= len(kinds) {
		return SkipPlan{}, false
	}
	p := SkipPlan{before: append([]Kind(nil), kinds[:idx]...), ints: idx}
	for _, k := range p.before {
		if k != KindInt {
			p.ints = 0x7F
		}
	}
	return p, true
}

// Offset is Seek's fast walk, small enough to inline into the loop that
// calls it: the offset in rec of the target column's kind byte when rec's
// column count fits its one byte and covers the target, every column ahead
// of the target is declared INT and holds an INT, and the target's kind byte
// is in rec. ok=false for any other record, and for every record of a plan
// with another kind ahead of the target; Seek walks those, and reports their
// errors. Where Offset answers, Seek returns rec[off:].
func (p SkipPlan) Offset(rec []byte) (off int, ok bool) {
	if len(rec) == 0 || int(int8(rec[0])) <= p.ints {
		return 0, false
	}
	off = 1
	for range p.ints {
		if off >= len(rec) || Kind(rec[off]) != KindInt {
			return 0, false
		}
		// A varint ends at its first byte without the continuation bit.
		for off++; off < len(rec) && rec[off] >= 0x80; off++ {
		}
		off++
	}
	return off, off < len(rec)
}

// Seek returns rec from the target column's kind byte on. The slice is not
// cut at the end of the value — DecodeValue and UniTextViews read exactly one
// value off its front — and it aliases rec, so it is only valid as long as
// rec is. A record narrower than the plan, or too short to hold the kind
// byte, is an error.
func (p SkipPlan) Seek(rec []byte) ([]byte, error) {
	n, off := binary.Uvarint(rec)
	if off <= 0 {
		return nil, fmt.Errorf("types: seek field: bad column count")
	}
	idx := len(p.before)
	if uint64(idx) >= n {
		return nil, fmt.Errorf("types: seek field %d out of range (tuple width %d)", idx, n)
	}
	for _, want := range p.before {
		if off < len(rec) && Kind(rec[off]) == want {
			switch want {
			case KindInt:
				// A varint ends at its first byte without the continuation bit.
				off++
				for off < len(rec) && rec[off] >= 0x80 {
					off++
				}
				off++
				continue
			case KindBool:
				off += 2
				continue
			case KindFloat:
				off += 9
				continue
			case KindText:
				// A length below 0x80 is its own one-byte prefix.
				if off+1 < len(rec) && rec[off+1] < 0x80 {
					if end := off + 2 + int(rec[off+1]); end <= len(rec) {
						off = end
						continue
					}
				}
			}
		}
		if off >= len(rec) {
			break
		}
		w, err := encodedValueSize(rec[off:])
		if err != nil {
			return nil, err
		}
		off += w
	}
	if off >= len(rec) {
		return nil, fmt.Errorf("types: seek field %d: short record", idx)
	}
	return rec[off:], nil
}

// encodedValueSize computes the width of one encoded value by walking its
// length prefixes, without decoding the payload.
func encodedValueSize(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("types: field size: empty buffer")
	}
	n := 1
	switch Kind(buf[0]) {
	case KindNull:
	case KindBool:
		n++
	case KindInt:
		_, sz := binary.Varint(buf[n:])
		if sz <= 0 {
			return 0, fmt.Errorf("types: field size: bad varint")
		}
		n += sz
	case KindFloat:
		n += 8
	case KindText:
		sz, err := skipLenPrefixed(buf[n:])
		if err != nil {
			return 0, err
		}
		n += sz
	case KindUniText:
		n = uniTextHeader
		if n > len(buf) {
			return 0, fmt.Errorf("types: field size: short unitext buffer")
		}
		for i := 0; i < 2; i++ {
			sz, err := skipLenPrefixed(buf[n:])
			if err != nil {
				return 0, err
			}
			n += sz
		}
	default:
		return 0, fmt.Errorf("types: field size: unknown kind %d", buf[0])
	}
	if n > len(buf) {
		return 0, fmt.Errorf("types: field size: short buffer")
	}
	return n, nil
}

func skipLenPrefixed(buf []byte) (int, error) {
	l, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, fmt.Errorf("types: field size: bad length prefix")
	}
	if uint64(len(buf)-sz) < l {
		return 0, fmt.Errorf("types: field size: short string")
	}
	return sz + int(l), nil
}

// UniTextViews decodes a UNITEXT field (as returned by SkipPlan.Seek) into
// its language plus zero-copy views of the text and phoneme bytes. The returned slices alias field — and through it the
// pinned page the record sits on — so they must not be retained past the page
// pin.
func UniTextViews(field []byte) (LangID, []byte, []byte, error) {
	if len(field) < uniTextHeader || Kind(field[0]) != KindUniText {
		return LangUnknown, nil, nil, fmt.Errorf("types: unitext views: not a UNITEXT field")
	}
	const hdr = uniTextHeader
	lang := LangID(binary.BigEndian.Uint16(field[1:]))
	text, sz, err := viewLenPrefixed(field[hdr:])
	if err != nil {
		return LangUnknown, nil, nil, fmt.Errorf("types: unitext views: text: %w", err)
	}
	ph, _, err := viewLenPrefixed(field[hdr+sz:])
	if err != nil {
		return LangUnknown, nil, nil, fmt.Errorf("types: unitext views: phoneme: %w", err)
	}
	return lang, text, ph, nil
}

// TextView returns a zero-copy view of a KindText field's bytes (as returned
// by SkipPlan.Seek); like UniTextViews, it aliases field.
func TextView(field []byte) ([]byte, error) {
	if len(field) < 2 || Kind(field[0]) != KindText {
		return nil, fmt.Errorf("types: text view: not a TEXT field")
	}
	text, _, err := viewLenPrefixed(field[1:])
	if err != nil {
		return nil, fmt.Errorf("types: text view: %w", err)
	}
	return text, nil
}

// viewLenPrefixed returns the bytes of the length-prefixed string at the front
// of buf and the width of the whole. A length below 0x80 is read inline.
func viewLenPrefixed(buf []byte) ([]byte, int, error) {
	if len(buf) > 0 && buf[0] < 0x80 {
		if end := 1 + int(buf[0]); end <= len(buf) {
			return buf[1:end], end, nil
		}
	}
	l, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("bad length prefix")
	}
	if uint64(len(buf)-sz) < l {
		return nil, 0, fmt.Errorf("short buffer")
	}
	return buf[sz : sz+int(l)], sz + int(l), nil
}
