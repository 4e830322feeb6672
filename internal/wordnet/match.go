package wordnet

import (
	"cmp"
	"math/bits"
	"slices"
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
// A probe keeps the constant's synsets, the languages it can match a row in,
// and their answer as a short sorted list of pre-order intervals:
// with the constant on the right one interval per synset r, [pre(r),
// post(r)), which is TC(r) because the taxonomy is a tree; on the left one
// point per ancestor-or-self of each, at most the taxonomy's depth. A row
// that stores its text's label (types.Keys, wordnet.Net.Label) is tested on
// it in place (PassesLabel): a label inside the intervals, in an admitted
// language, is an exact match, with no lookup of the text, and a row
// labelled NoSynsets never matches; a row labelled ManySynsets or
// Unlabelled passes to Verify. A row read without a label — TEXT, a decoded
// value, a constant — is tested by filter, then verify: when its caller
// compiled one, a Bloom filter per admitted language over the types.CaseHash
// of every word form the probe can accept, read off the net's pre-order
// hashes, at 32 bits a synset and three bits a hash in one 64-bit word
// (bloom), rejects ASCII text whose bits are not set (Passes, on the row's
// hash, which its caller supplies); Verify then looks the row's word up in
// the net's table of forms, keyed by that same hash, and compares intervals
// per synset pair. Both tests are exact together, so the probe is.
type Probe struct {
	net   *Net
	roots []SynsetID // the constant's synsets
	// left: the constant is Ω's left operand, so a row matches when one of
	// its synsets is an ancestor-or-self of a root; else when one is inside
	// a root's closure.
	left bool
	// admit has bit lang&127 set for each language the probe can match a
	// row in: none when the constant has no synsets.
	admit [2]uint64
	// The probe's sorted, disjoint pre-order intervals: the first is [lo,
	// lo+n), and more holds the ends of the rest, lo₁, hi₁, lo₂, hi₂, ...
	// (empty for a constant of one synset on the right).
	lo, n uint32
	more  []uint32
	// filters holds, when the probe was compiled with them, a Bloom filter
	// for each language it can match in, by LangID (none for any other);
	// nil when every row it meets has a label or it was not worth building.
	filters []bloom
}

// bitsPerSynset sizes a filter: bits per (synset, language) before rounding
// up to a power of two.
const bitsPerSynset = 32

// CompileRight compiles Ω(·, rhs), a probe of the left operand. It filters
// rows read without a label on TC(rhs)'s word forms in the admitted languages
// when the filters' size, known in O(1) as closure size × admitted languages,
// is at most maxWords: a caller passes the unlabelled rows it will probe (0
// when every row has a label), so building them never costs more than the
// rows' lookups it saves.
func (w *Net) CompileRight(rhs types.UniText, langs []types.LangID, maxWords int) *Probe {
	p := &Probe{net: w, roots: w.SynsetsOf(rhs.Lang, rhs.Text)}
	in := langs
	if len(in) == 0 {
		in = w.langs
	}
	size := 0
	runs := make([][2]int32, len(p.roots))
	for i, r := range p.roots {
		size += w.ix.ClosureSize(r)
		runs[i] = [2]int32{w.ix.pre[r], w.ix.post[r]}
	}
	p.compile(in, runs, size, maxWords)
	return p
}

// CompileLeft compiles Ω(lhs, ·), a probe of the right operand, which
// matches when one of its synsets, in any language (the IN clause restricts
// lhs), is an ancestor-or-self of one of lhs's: at most the taxonomy's depth
// of synsets per synset of lhs. It filters rows read without a label on those
// synsets' word forms when synsets × languages is at most maxWords, as
// CompileRight does.
func (w *Net) CompileLeft(lhs types.UniText, langs []types.LangID, maxWords int) *Probe {
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
	p.compile(w.langs, runs, len(runs), maxWords)
	return p
}

// compile gives the probe its languages, intervals and filters: the
// pre-order runs [lo, hi) hold synsets synsets in all, and langs are the
// languages it admits, of which those the net has are the ones it can match
// in. A probe of no synsets admits no language, so it matches nothing; one
// whose filters, of synsets × languages, would exceed maxWords gets none.
func (p *Probe) compile(langs []types.LangID, runs [][2]int32, synsets, maxWords int) {
	if synsets == 0 {
		return
	}
	var can []types.LangID
	for _, lang := range langs {
		if p.net.formsOf(lang) != nil && lang < 128 {
			p.admit[lang>>6] |= 1 << (lang & 63)
			can = append(can, lang)
		}
	}
	slices.SortFunc(runs, func(a, b [2]int32) int { return cmp.Compare(a[0], b[0]) })
	var ends []uint32
	for _, r := range runs {
		if n := len(ends); n > 0 && uint32(r[0]) <= ends[n-1] {
			ends[n-1] = max(ends[n-1], uint32(r[1]))
			continue
		}
		ends = append(ends, uint32(r[0]), uint32(r[1]))
	}
	p.lo, p.n = ends[0], ends[1]-ends[0]
	if len(ends) > 2 {
		p.more = ends[2:]
	}
	if synsets*len(can) <= maxWords {
		p.filter(can, runs, synsets)
	}
}

// filter gives the probe a filter in each of langs, languages the net has,
// over the word forms of the pre-order runs [lo, hi), which hold synsets
// synsets in all; the filter's size follows from that count.
func (p *Probe) filter(langs []types.LangID, runs [][2]int32, synsets int) {
	words := 1
	for words*64 < bitsPerSynset*synsets {
		words <<= 1
	}
	for _, lang := range langs {
		forms := p.net.formsOf(lang)
		f := newBloom(words)
		for _, r := range runs {
			for _, h := range forms.hashes(r[0], r[1]) {
				f.add(h)
			}
		}
		for int(lang) >= len(p.filters) {
			p.filters = append(p.filters, bloom{})
		}
		p.filters[lang] = f
	}
}

// Match evaluates the probe on the other operand's language and text, whose
// types.CaseHash is h and ascii: Passes, then Verify.
func (p *Probe) Match(lang types.LangID, text []byte, h uint32, ascii bool) bool {
	return p.Passes(lang, h, ascii) && p.Verify(lang, text, h, ascii)
}

// PassesLabel tests a row that stores its text's Ω label (types.Keys) on its
// language and that label alone, as a heap slot keeps them: false rules the
// row out, and true is an exact match for a label below types.NoSynsets and
// leaves a row that types.Verifies to Verify. A label outside the first
// interval costs one more compare, and only a probe of several intervals
// looks further (inMore). It inlines, so a scan's page loop tests a row
// without a call.
func (p *Probe) PassesLabel(lang types.LangID, label uint32) bool {
	return (label-p.lo < p.n || label >= types.ManySynsets || p.inMore(label)) &&
		p.admit[lang>>6&1]>>(lang&63)&1 != 0
}

// inMore reports whether label is inside one of the intervals after the
// first.
func (p *Probe) inMore(label uint32) bool {
	for i := 0; i+1 < len(p.more); i += 2 {
		if label-p.more[i] < p.more[i+1]-p.more[i] {
			return true
		}
	}
	return false
}

// Passes tests an operand read without a label on its language and its
// text's types.CaseHash: false rules it out, true leaves it to Verify.
func (p *Probe) Passes(lang types.LangID, h uint32, ascii bool) bool {
	if p.filters == nil {
		return lang < 128 && p.admit[lang>>6]>>(lang&63)&1 != 0
	}
	return int(lang) < len(p.filters) && p.filters[lang].passes(h, ascii)
}

// Verify evaluates the probe on an operand that Passes or PassesLabel let
// through, on its text, which it does not retain, and the text's
// types.CaseHash, h and ascii, folding case as SynsetsOf does; it allocates
// only for text that folding changes or a word of more than four synsets.
func (p *Probe) Verify(lang types.LangID, text []byte, h uint32, ascii bool) bool {
	f := p.net.formsOf(lang)
	if f == nil {
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
// constant's synsets, the intervals and any filters' bits.
func (p *Probe) MemBytes() int64 {
	n := int64(len(p.roots))*4 + 8 + int64(len(p.more))*4 + int64(len(p.filters))*32
	for _, f := range p.filters {
		n += int64(len(f.words)) * 8
	}
	return n
}

// bloom is a Bloom filter of types.CaseHash values that sets three bits per
// value in one 64-bit word: the hash's top bits pick the word, and three
// 6-bit fields of the hash times an odd constant pick the bits in it. A test
// is then one load and one mask compare.
type bloom struct {
	words []uint64 // a power of two of them
	shift uint32   // 32 − log2 of the number of words
}

// newBloom returns an empty filter of words 64-bit words, a power of two.
func newBloom(words int) bloom {
	return bloom{words: make([]uint64, words), shift: uint32(33 - bits.Len(uint(words)))}
}

// pos returns the word h sets bits in and the mask of those bits.
func (f bloom) pos(h uint32) (w uint32, m uint64) {
	g := h * 0x9E3779B1
	return h >> f.shift, 1<<(g>>26) | 1<<(g>>20&63) | 1<<(g>>14&63)
}

func (f bloom) add(h uint32) {
	w, m := f.pos(h)
	f.words[w] |= m
}

// passes reports whether a text whose types.CaseHash is h and ascii may
// have been added: for ASCII text, whether h may have been; non-ASCII
// text's hash folds no case, so it passes any filter. It is false in the
// filter of a language without one (no words). w is below len(f.words) by
// construction (shift); the comparison says so to the compiler, which then
// drops its bounds check and the panic path behind it.
func (f *bloom) passes(h uint32, ascii bool) bool {
	w, m := f.pos(h)
	return int(w) < len(f.words) && (!ascii || f.words[w]&m == m)
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
