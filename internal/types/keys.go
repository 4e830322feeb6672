package types

import (
	"encoding/binary"
	"unicode/utf8"
)

// Filter keys. Ψ and Ω each reject most pairs on a key far cheaper than the
// operator itself: Ψ on its phoneme's Summary, Ω on its text's CaseHash. A
// heap slot keeps both for the value of its table's keyed column
// (KeyedColumn), computed once at insert as the phoneme is (AppendSlotKeys),
// so they are on-disk format: this file is their one definition, and a change
// to what any of them returns for any input, or to the slot keys' layout,
// must bump RecordFormat.

// RecordFormat numbers the on-disk format: the record encoding, the filter
// keys and their layout in a heap slot, and where the catalog lives (3: in
// the pages of data file 0). The catalog's page 0 records it, and a data
// directory written under any other number is refused.
const RecordFormat = 3

// Summary is what Ψ's prefilter reads of a phoneme: its length in runes and
// its rune-set signature, one bit per rune (Fibonacci hashing to 6 bits).
// Summarize takes exactly the steps the matcher's loop takes — one byte below
// utf8.RuneSelf, otherwise whatever utf8.DecodeRune consumes, so an invalid
// byte is one U+FFFD — so the length it counts and the number of Myers steps
// cannot disagree.
type Summary struct {
	Runes int
	Sig   uint64
}

// Summarize reads b's summary.
func Summarize(b []byte) Summary {
	var s Summary
	for i := 0; i < len(b); s.Runes++ {
		if c := b[i]; c < utf8.RuneSelf {
			s.Sig |= sigBit(rune(c))
			i++
		} else {
			r, w := utf8.DecodeRune(b[i:])
			s.Sig |= sigBit(r)
			i += w
		}
	}
	return s
}

// sigBit is r's bit in a rune-set signature.
func sigBit(r rune) uint64 { return 1 << (uint32(r) * 0x9E3779B1 >> 26) }

// CaseHash is Ω's filter key of a text: a hash of b with bit 0x20 set in
// every byte, so two ASCII texts equal under strings.ToLower hash alike, and
// whether b is ASCII. It mixes the length and every eight-byte word as
// LoadWord reads them — the first and the last included.
func CaseHash(b []byte) (h uint32, ascii bool) {
	const ones = 0x0101010101010101
	x, top := uint64(len(b)), uint64(0)
	for i := 0; i < len(b); i += 8 {
		w := LoadWord(b, i)
		top |= w
		x = (x ^ (w | 0x20*ones)) * 0x9E3779B97F4A7C15
		x ^= x >> 32
	}
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 31
	return uint32(x >> 32), top&(0x80*ones) == 0
}

// LoadWord reads the eight bytes of b at i, little-endian: past the last
// whole word the last eight bytes, overlapping the word before, and a text
// shorter than eight bytes zero-padded.
func LoadWord(b []byte, i int) uint64 {
	switch {
	case i+8 <= len(b):
		return binary.LittleEndian.Uint64(b[i:])
	case len(b) >= 8:
		return binary.LittleEndian.Uint64(b[len(b)-8:])
	}
	var pad [8]byte
	copy(pad[:], b)
	return binary.LittleEndian.Uint64(pad[:])
}

// Keys are the filter keys of a UNITEXT value: its phoneme's Summary and its
// text's CaseHash.
type Keys struct {
	Phoneme Summary
	Hash    uint32
	ASCII   bool
}

// KeysOf computes the keys of a value with the given text and phoneme.
func KeysOf(text, ph []byte) Keys {
	h, ascii := CaseHash(text)
	return Keys{Phoneme: Summarize(ph), Hash: h, ASCII: ascii}
}

// Slot keys. A table whose columns include a UNITEXT one keeps the filter
// keys of its first UNITEXT column's value in each row's heap slot, beside
// the record's offset and length, so that a scan tests them without reading
// the record. They are SlotKeyBytes wide:
//
//	[0:8)   the phoneme's rune-set signature, little-endian
//	[8:12)  the text's CaseHash, little-endian
//	[12]    the phoneme's rune count; RunesOverflow when it is 255 or more
//	[13]    the language in the low seven bits, 0x80 when the text is ASCII;
//	        noSlotKeys when the value has no keys here: it is not UNITEXT
//	        (NULL), or its language does not fit seven bits
//
// The record holds the value in EncodeTuple's form whatever its slot holds.
const (
	SlotKeyBytes = 14
	noSlotKeys   = 0x7F
)

// The offsets of the slot keys' fields, which the accessors below are the
// only readers of.
const (
	slotSig   = 0
	slotHash  = 8
	slotRunes = 12
	slotLang  = 13
)

// RunesOverflow is the stored rune count of a phoneme whose count does not
// fit its byte: 255 runes or more.
const RunesOverflow = 0xFF

// KeyedColumn returns the column of a table with columns of the given kinds
// whose filter keys its heap slots carry — the first UNITEXT column — and
// the width of a slot's keys: SlotKeyBytes, or -1 and 0 for a table with no
// UNITEXT column.
func KeyedColumn(kinds []Kind) (col, keyBytes int) {
	for i, k := range kinds {
		if k == KindUniText {
			return i, SlotKeyBytes
		}
	}
	return -1, 0
}

// AppendSlotKeys appends the slot keys of column keyed of t to buf; nothing
// when keyed is -1 (KeyedColumn of a table with no UNITEXT column).
func AppendSlotKeys(buf []byte, t Tuple, keyed int) []byte {
	if keyed < 0 {
		return buf
	}
	var b [SlotKeyBytes]byte
	b[slotLang] = noSlotKeys
	if v := t[keyed]; v.kind == KindUniText && v.lang < noSlotKeys {
		k := KeysOf([]byte(v.s), []byte(v.ph))
		binary.LittleEndian.PutUint64(b[slotSig:], k.Phoneme.Sig)
		binary.LittleEndian.PutUint32(b[slotHash:], k.Hash)
		b[slotRunes] = byte(min(k.Phoneme.Runes, RunesOverflow))
		b[slotLang] = byte(v.lang)
		if k.ASCII {
			b[slotLang] |= 0x80
		}
	}
	return append(buf, b[:]...)
}

// Slot-key accessors. A select loop reads the fields its key test needs of
// a slot's keys in place, through these; each inlines. The field readers
// (SlotSig, SlotHash, SlotRunes, SlotLang, SlotSummary, SlotTextKeys) take
// slot keys that hold a value's keys, as those SlotSummarized passes do.

// slotHasKeys reports whether b holds the keys of a value: it is SlotKeyBytes
// long (a slot of a table without a UNITEXT column has no key bytes) and not
// the marker of a value without keys.
func slotHasKeys(b []byte) bool { return len(b) == SlotKeyBytes && b[slotLang] != noSlotKeys }

// SlotSummarized reports whether b holds the keys of a value whose phoneme's
// stored rune count is exact and not 0 (slotHasKeys, and a count in 1..254):
// keys a key test takes as read.
func SlotSummarized(b []byte) bool {
	return slotHasKeys(b) && b[slotRunes]-1 < RunesOverflow-1
}

// SlotSig is the phoneme's rune-set signature.
func SlotSig(b []byte) uint64 { return binary.LittleEndian.Uint64(b[slotSig:]) }

// SlotHash is the text's CaseHash.
func SlotHash(b []byte) uint32 { return binary.LittleEndian.Uint32(b[slotHash:]) }

// SlotRunes is the phoneme's rune count, RunesOverflow for 255 or more.
func SlotRunes(b []byte) int { return int(b[slotRunes]) }

// SlotLang is the value's language and whether its text is ASCII, read off
// the one byte that holds both.
func SlotLang(b []byte) (lang LangID, ascii bool) {
	return LangID(b[slotLang] & 0x7F), b[slotLang]&0x80 != 0
}

// SlotSummary is the phoneme's Summary: the keys Ψ's prefilter reads.
func SlotSummary(b []byte) Summary { return Summary{Runes: SlotRunes(b), Sig: SlotSig(b)} }

// SlotTextKeys is the value's language, its text's CaseHash and whether the
// text is ASCII: the keys Ω's filter reads, in the order it takes them.
func SlotTextKeys(b []byte) (lang LangID, h uint32, ascii bool) {
	lang, ascii = SlotLang(b)
	return lang, SlotHash(b), ascii
}

// SlotKeys reads the slot keys b (as AppendSlotKeys wrote them): the value's
// language and filter keys, the rune count of a phoneme of 255 runes or more
// being RunesOverflow. ok=false when b holds none (slotHasKeys). It inlines.
func SlotKeys(b []byte) (lang LangID, k Keys, ok bool) {
	if !slotHasKeys(b) {
		return LangUnknown, Keys{}, false
	}
	lang, ascii := SlotLang(b)
	return lang, Keys{Phoneme: Summary{Runes: SlotRunes(b), Sig: SlotSig(b)}, Hash: SlotHash(b), ASCII: ascii}, true
}
