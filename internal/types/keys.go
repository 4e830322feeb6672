package types

import (
	"encoding/binary"
	"unicode/utf8"
)

// Filter keys. Ψ and Ω each reject most pairs on a key far cheaper than the
// operator itself: Ψ on its phoneme's Summary, Ω on its text's label (the
// pre-order number of its one synset) or, for a value read without one, on
// its text's CaseHash. A heap slot keeps the Summary and the label of the
// value of its table's keyed column (KeyedColumn), computed once at insert as
// the phoneme is (AppendSlotKeys), so they are on-disk format: this file is
// their one definition, and a change to what any of them returns for any
// input, or to the slot keys' layout, must bump RecordFormat. The label comes
// from the taxonomy, which this package does not know: its caller computes it
// (wordnet.Net.Label) and the database pins the taxonomy it was computed
// under.

// RecordFormat numbers the on-disk format: the record encoding, the filter
// keys and their layout in a heap slot, and where the catalog lives (3: in
// the pages of data file 0; 4: a slot keeps Ω's label, not the text's hash).
// The catalog's page 0 records it, and a data directory written under any
// other number is refused.
const RecordFormat = 4

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

// CaseHash is Ω's filter key of a text read without a label, and the key of
// a taxonomy's table of word forms: a hash of b with bit 0x20 set in every
// byte, so two ASCII texts equal under strings.ToLower hash alike, and
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

// Keys are the filter keys a heap slot keeps of a UNITEXT value: its
// phoneme's Summary and its text's Ω label.
type Keys struct {
	Phoneme Summary
	Label   uint32
}

// Ω labels. A keyed UNITEXT value's label is the pre-order number of its
// folded text's one synset in its language, under the taxonomy the database
// pins, so that Ω's test of a row is an interval compare; a text with no such
// one synset stores one of three sentinels above every pre-order number.
// Verifies tells the two that need the text apart from the rest.
const (
	// NoSynsets: the text names no synset in its language, so Ω never holds.
	NoSynsets uint32 = 0xFFFFFFFD
	// ManySynsets: it names more than one, so Ω is verified from the text.
	ManySynsets uint32 = 0xFFFFFFFE
	// Unlabelled: the value was written with no taxonomy loaded, so Ω is
	// verified from the text.
	Unlabelled uint32 = 0xFFFFFFFF
)

// Verifies reports whether a row with the given label is verified from its
// text: ManySynsets or Unlabelled.
func Verifies(label uint32) bool { return label >= ManySynsets }

// Slot keys. A table whose columns include a UNITEXT one keeps the filter
// keys of its first UNITEXT column's value in each row's heap slot, beside
// the record's offset and length, so that a scan tests them without reading
// the record. They are SlotKeyBytes wide:
//
//	[0:8)   the phoneme's rune-set signature, little-endian
//	[8:12)  the text's Ω label, little-endian: a pre-order number or one of
//	        NoSynsets, ManySynsets, Unlabelled
//	[12]    the phoneme's rune count; RunesOverflow when it is 255 or more
//	[13]    the language; noSlotKeys when the value has no keys here: it is
//	        not UNITEXT (NULL), or its language does not fit seven bits
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
	slotLabel = 8
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

// AppendSlotKeys appends the slot keys of column keyed of t to buf, label
// being the Ω label of its text (wordnet.Net.Label, Unlabelled without a
// taxonomy); nothing when keyed is -1 (KeyedColumn of a table with no
// UNITEXT column).
func AppendSlotKeys(buf []byte, t Tuple, keyed int, label uint32) []byte {
	if keyed < 0 {
		return buf
	}
	var b [SlotKeyBytes]byte
	b[slotLang] = noSlotKeys
	if v := t[keyed]; v.kind == KindUniText && v.lang < noSlotKeys {
		ph := Summarize([]byte(v.ph))
		binary.LittleEndian.PutUint64(b[slotSig:], ph.Sig)
		binary.LittleEndian.PutUint32(b[slotLabel:], label)
		b[slotRunes] = byte(min(ph.Runes, RunesOverflow))
		b[slotLang] = byte(v.lang)
	}
	return append(buf, b[:]...)
}

// Slot-key accessors. A select loop reads the fields its key test needs of
// a slot's keys in place, through these; each inlines. The field readers
// (SlotSig, SlotLabel, SlotRunes, SlotLang, SlotSummary, SlotOmegaKeys) take
// slot keys that hold a value's keys, as those SlotHasKeys passes do.

// SlotHasKeys reports whether b holds the keys of a value: it is SlotKeyBytes
// long (a slot of a table without a UNITEXT column has no key bytes) and not
// the marker of a value without keys. Ω's key test takes such keys as read.
func SlotHasKeys(b []byte) bool { return len(b) == SlotKeyBytes && b[slotLang] != noSlotKeys }

// SlotSummarized reports whether b holds the keys of a value whose phoneme's
// stored rune count is exact and not 0 (SlotHasKeys, and a count in 1..254):
// keys Ψ's key test takes as read.
func SlotSummarized(b []byte) bool {
	return SlotHasKeys(b) && b[slotRunes]-1 < RunesOverflow-1
}

// SlotSig is the phoneme's rune-set signature.
func SlotSig(b []byte) uint64 { return binary.LittleEndian.Uint64(b[slotSig:]) }

// SlotLabel is the text's Ω label.
func SlotLabel(b []byte) uint32 { return binary.LittleEndian.Uint32(b[slotLabel:]) }

// SlotRunes is the phoneme's rune count, RunesOverflow for 255 or more.
func SlotRunes(b []byte) int { return int(b[slotRunes]) }

// SlotLang is the value's language.
func SlotLang(b []byte) LangID { return LangID(b[slotLang]) }

// SlotSummary is the phoneme's Summary: the keys Ψ's prefilter reads.
func SlotSummary(b []byte) Summary { return Summary{Runes: SlotRunes(b), Sig: SlotSig(b)} }

// SlotOmegaKeys is the value's language and its text's Ω label: the keys Ω's
// label test reads, in the order it takes them.
func SlotOmegaKeys(b []byte) (lang LangID, label uint32) { return SlotLang(b), SlotLabel(b) }

// SlotKeys reads the slot keys b (as AppendSlotKeys wrote them): the value's
// language and filter keys, the rune count of a phoneme of 255 runes or more
// being RunesOverflow. ok=false when b holds none (SlotHasKeys). It inlines.
func SlotKeys(b []byte) (lang LangID, k Keys, ok bool) {
	if !SlotHasKeys(b) {
		return LangUnknown, Keys{}, false
	}
	return SlotLang(b), Keys{Phoneme: SlotSummary(b), Label: SlotLabel(b)}, true
}
