package types

import (
	"encoding/binary"
	"unicode/utf8"
)

// Filter keys. Ψ and Ω each reject most pairs on a key far cheaper than the
// operator itself: Ψ on its phoneme's Summary, Ω on its text's CaseHash. The
// storage encoder (EncodeRecord) keeps both beside every UNITEXT value it
// writes, computed once at insert as the phoneme is, so they are on-disk
// format: this file is their one definition, and a change to what any of them
// returns for any input must bump RecordFormat.

// RecordFormat numbers the on-disk format: the record encoding and the
// filter keys it stores. The catalog image records it, and a data directory
// written under any other number is refused.
const RecordFormat = 1

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
