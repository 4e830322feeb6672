package wordnet

import (
	"math/bits"
	"unicode"
	"unicode/utf8"

	"github.com/mural-db/mural/internal/types"
)

// Probe is the Ω (SemEQUAL) predicate with one operand fixed: Ω(lhs, rhs)
// holds when some synset of the LHS word is inside the transitive closure of
// some synset of the RHS word (the paper's Figure 5 algorithm), the LHS
// language optionally restricted to an output set (the "IN English, French,
// Tamil" clause of Figure 4; empty admits every language). A probe is
// immutable, so a parallel scan's workers share it.
//
// A probe keeps the constant's synsets and tests a row by filter, then
// verify. The filter, when the probe has one, is a Bloom filter per language
// over the types.CaseHash of every word form the probe can accept, read off
// the net's pre-order hashes: a row in a language without a filter, or ASCII
// text whose bits are not set, is rejected (Passes, on the row's hash, which
// its caller supplies). Anything else is verified exactly (Verify): one
// lookup of the row's word in the net's table of forms, keyed by that same
// hash, and an interval compare per synset pair. The filter has no false
// negatives on ASCII text, so the probe is exact.
type Probe struct {
	net   *Net
	langs []types.LangID // the IN list, which an unfiltered probe applies to the row
	roots []SynsetID     // the constant's synsets
	// left: the constant is Ω's left operand, so a row matches when one of
	// its synsets is an ancestor-or-self of a root; else when one is inside
	// a root's closure.
	left bool
	// filtered: the probe tests rows on filters, one per language it can
	// match in (nil for any other).
	filtered bool
	filters  []bloom
}

// bitsPerSynset sizes a filter: bits per (synset, language) before rounding
// up to a power of two.
const bitsPerSynset = 16

// CompileRight compiles Ω(·, rhs), a probe of the left operand. It filters on
// TC(rhs)'s word forms in the admitted languages when the filters' size,
// known in O(1) as closure size × admitted languages, is at most maxWords: a
// caller passes the rows it will probe, so building them never costs more
// than the rows' lookups it saves. Past that the probe tests every row on the
// labels.
func (w *Net) CompileRight(rhs types.UniText, langs []types.LangID, maxWords int) *Probe {
	p := &Probe{net: w, langs: langs, roots: w.SynsetsOf(rhs.Lang, rhs.Text)}
	in := langs
	if len(in) == 0 {
		in = w.langs
	}
	size := 0
	for _, r := range p.roots {
		size += w.ix.ClosureSize(r)
	}
	if size*len(in) <= maxWords {
		runs := make([][2]int32, len(p.roots))
		for i, r := range p.roots {
			runs[i] = [2]int32{w.ix.pre[r], w.ix.post[r]}
		}
		p.filter(in, runs, size)
	}
	return p
}

// CompileLeft compiles Ω(lhs, ·), a probe of the right operand, which
// matches when one of its synsets, in any language (the IN clause restricts
// lhs), is an ancestor-or-self of one of lhs's. It filters on the word forms
// of those ancestors: at most the taxonomy's depth of synsets per synset of
// lhs.
func (w *Net) CompileLeft(lhs types.UniText, langs []types.LangID) *Probe {
	p := &Probe{net: w, left: true}
	if admitted(lhs.Lang, langs) {
		p.roots = w.SynsetsOf(lhs.Lang, lhs.Text)
	}
	var runs [][2]int32
	for _, s := range p.roots {
		for a := s; a != NoSynset; a = w.parent[a] {
			runs = append(runs, [2]int32{w.ix.pre[a], w.ix.pre[a] + 1})
		}
	}
	p.filter(w.langs, runs, len(runs))
	return p
}

// filter gives the probe a filter in each of langs the net has, over the word
// forms of the pre-order runs [lo, hi), which hold synsets synsets in all; the
// filter's size follows from that count. With no synsets no language gets one,
// so the probe matches nothing.
func (p *Probe) filter(langs []types.LangID, runs [][2]int32, synsets int) {
	p.filtered = true
	if synsets == 0 {
		return
	}
	words := 1
	for words*64 < bitsPerSynset*synsets {
		words <<= 1
	}
	for _, lang := range langs {
		forms, ok := p.net.forms[lang]
		if !ok {
			continue
		}
		for int(lang) >= len(p.filters) {
			p.filters = append(p.filters, bloom{})
		}
		f := newBloom(words)
		for _, r := range runs {
			for _, h := range forms.hashes(r[0], r[1]) {
				f.add(h)
			}
		}
		p.filters[lang] = f
	}
}

// Match evaluates the probe on the other operand's language and text, whose
// types.CaseHash is h and ascii: Passes, then Verify.
func (p *Probe) Match(lang types.LangID, text []byte, h uint32, ascii bool) bool {
	return p.Passes(lang, h, ascii) && p.Verify(lang, text, h, ascii)
}

// Passes tests the other operand on its language and its text's
// types.CaseHash alone — a stored value keeps the hash, so its text need not
// be read: false rules the operand out, true leaves it to Verify.
func (p *Probe) Passes(lang types.LangID, h uint32, ascii bool) bool {
	if !p.filtered {
		return admitted(lang, p.langs)
	}
	if int(lang) >= len(p.filters) || p.filters[lang].words == nil {
		return false
	}
	return !ascii || p.filters[lang].has(h)
}

// Verify evaluates the probe on an operand that Passes let through, on its
// text, which it does not retain, and the text's types.CaseHash, h and ascii,
// folding case as SynsetsOf does; it allocates only for text that folding
// changes or a word of more than four synsets.
func (p *Probe) Verify(lang types.LangID, text []byte, h uint32, ascii bool) bool {
	f, ok := p.net.forms[lang]
	if !ok {
		return false
	}
	var buf [4]SynsetID
	for _, s := range f.synsets(text, h, ascii, buf[:0]) {
		for _, r := range p.roots {
			if p.left && p.net.ix.Contains(r, s) || !p.left && p.net.ix.Contains(s, r) {
				return true
			}
		}
	}
	return false
}

// MemBytes approximates what the probe holds beyond the net it reads: the
// constant's synsets and the filters' bits.
func (p *Probe) MemBytes() int64 {
	n := int64(len(p.roots))*4 + int64(len(p.filters))*32
	for _, f := range p.filters {
		n += int64(len(f.words)) * 8
	}
	return n
}

// bloom is a Bloom filter of types.CaseHash values that sets two bits per
// value: the top bits of the hash and of the hash times an odd constant pick
// them.
type bloom struct {
	words []uint64 // a power of two of them
	shift uint32   // 32 − log2 of the filter's bits
}

// newBloom returns an empty filter of words 64-bit words, a power of two.
func newBloom(words int) bloom {
	return bloom{words: make([]uint64, words), shift: uint32(33 - bits.Len(uint(words*64)))}
}

// pos returns the two bits h sets.
func (f bloom) pos(h uint32) (i, j uint32) {
	return h >> f.shift, (h * 0x9E3779B1) >> f.shift
}

func (f bloom) add(h uint32) {
	i, j := f.pos(h)
	f.words[i>>6] |= 1 << (i & 63)
	f.words[j>>6] |= 1 << (j & 63)
}

func (f bloom) has(h uint32) bool {
	i, j := f.pos(h)
	return f.words[i>>6]&(1<<(i&63)) != 0 && f.words[j>>6]&(1<<(j&63)) != 0
}

// folded reports whether strings.ToLower leaves b unchanged. It runs on every
// probed row, so ASCII goes eight bytes at a time (the last word overlapping
// the one before, a short text zero-padded): below 0x80, adding 0x3F sets a
// byte's top bit from 'A' up and adding 0x25 from past 'Z' up, carry-free.
func folded(b []byte) bool {
	const ones = 0x0101010101010101
	for i := 0; i < len(b); i += 8 {
		x := types.LoadWord(b, i)
		if x&(0x80*ones) != 0 {
			return foldedRunes(b)
		}
		if (x+0x3F*ones)&^(x+0x25*ones)&(0x80*ones) != 0 {
			return false
		}
	}
	return true
}

// foldedRunes is folded rune by rune: valid UTF-8 with no rune that
// lower-cases to another.
func foldedRunes(b []byte) bool {
	for len(b) > 0 {
		r, n := utf8.DecodeRune(b)
		if r == utf8.RuneError && n == 1 || unicode.ToLower(r) != r {
			return false
		}
		b = b[n:]
	}
	return true
}

// admitted applies the IN clause: an empty list admits every language.
func admitted(lang types.LangID, langs []types.LangID) bool {
	if len(langs) == 0 {
		return true
	}
	for _, l := range langs {
		if l == lang {
			return true
		}
	}
	return false
}
