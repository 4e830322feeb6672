package wordnet

import (
	"encoding/binary"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/mural-db/mural/internal/types"
)

// Probe is the Ω (SemEQUAL) predicate with one operand fixed: Ω(lhs, rhs)
// holds when some synset of the LHS word is inside the transitive closure of
// some synset of the RHS word (the paper's Figure 5 algorithm), the LHS
// language optionally restricted to an output set (the "IN English, French,
// Tamil" clause of Figure 4; empty admits every language). A probe is
// immutable, so a parallel scan's workers share it. In its word-set form it
// lists, per language, every word form it accepts: a row costs one hash
// lookup of its text. In its interval form — what a closure too large to
// enumerate compiles to, and what the generic evaluator compiles per pair —
// it keeps the constant's synsets and resolves the row's word to its own: one
// lookup in the net's word table plus an interval compare per synset pair.
type Probe struct {
	words []map[string]struct{} // by language; the strings are the net's own
	// The interval form (net != nil): the admitted languages and the roots.
	net   *Net
	langs []types.LangID
	roots []SynsetID
}

// wordEntryBytes approximates one word-set entry: a string header plus its
// share of the table's slots.
const wordEntryBytes = 32

// CompileRight compiles Ω(·, rhs), a probe of the left operand. The word-set
// form is TC(rhs)'s word forms in the admitted languages, read off the
// contiguous pre-order slice. It is chosen when its size, known in O(1) as
// closure size × admitted languages, is at most maxWords: a caller passes the
// rows it will probe, so building the set never costs more lookups than it
// saves. Past that the probe takes the interval form.
func (w *Net) CompileRight(rhs types.UniText, langs []types.LangID, maxWords int) *Probe {
	roots := w.SynsetsOf(rhs.Lang, rhs.Text)
	in := langs
	if len(in) == 0 {
		in = w.langs
	}
	size := 0
	for _, r := range roots {
		size += w.ix.ClosureSize(r)
	}
	if size*len(in) > maxWords {
		return &Probe{net: w, langs: langs, roots: roots}
	}
	p := &Probe{}
	for _, lang := range in {
		for _, r := range roots {
			p.add(lang, w.lemmas[lang], w.ix.Closure(r), size)
		}
	}
	return p
}

// CompileLeft compiles Ω(lhs, ·), a probe of the right operand, which
// matches when one of its synsets, in any language (the IN clause restricts
// lhs), is an ancestor-or-self of one of lhs's: the word forms of at most
// the taxonomy's depth of synsets per synset of lhs.
func (w *Net) CompileLeft(lhs types.UniText, langs []types.LangID) *Probe {
	p := &Probe{}
	if !admitted(lhs.Lang, langs) {
		return p
	}
	for _, s := range w.SynsetsOf(lhs.Lang, lhs.Text) {
		var up []SynsetID
		for a := s; a != NoSynset; a = w.parent[a] {
			up = append(up, a)
		}
		for _, lang := range w.langs {
			p.add(lang, w.lemmas[lang], up, len(up))
		}
	}
	return p
}

// add puts the word forms of ids in lang into the word set of lang.
func (p *Probe) add(lang types.LangID, forms [][]string, ids []SynsetID, hint int) {
	if forms == nil {
		return
	}
	for int(lang) >= len(p.words) {
		p.words = append(p.words, nil)
	}
	if p.words[lang] == nil {
		p.words[lang] = make(map[string]struct{}, hint)
	}
	for _, id := range ids {
		for _, f := range forms[id] {
			p.words[lang][f] = struct{}{}
		}
	}
}

// Match evaluates the probe on the other operand's language and text, which
// it does not retain, folding case as SynsetsOf does; it allocates only for
// text that folding changes.
func (p *Probe) Match(lang types.LangID, text []byte) bool {
	if p.net == nil {
		if int(lang) >= len(p.words) {
			return false
		}
		_, ok := lookup(p.words[lang], text)
		return ok
	}
	if !admitted(lang, p.langs) {
		return false
	}
	syns, _ := lookup(p.net.byWord[lang], text)
	for _, s := range syns {
		for _, r := range p.roots {
			if p.net.ix.Contains(s, r) {
				return true
			}
		}
	}
	return false
}

// MemBytes approximates what the probe holds beyond the net it reads.
func (p *Probe) MemBytes() int64 {
	n := int64(len(p.roots))*4 + int64(len(p.words))*8
	for _, set := range p.words {
		n += int64(len(set)) * wordEntryBytes
	}
	return n
}

// lookup finds text in m, case-folded as SynsetsOf folds it.
func lookup[V any](m map[string]V, text []byte) (V, bool) {
	if !folded(text) {
		v, ok := m[strings.ToLower(string(text))]
		return v, ok
	}
	v, ok := m[string(text)]
	return v, ok
}

// folded reports whether strings.ToLower leaves b unchanged. It runs on every
// probed row, so ASCII goes eight bytes at a time (the last word overlapping
// the one before, a short text zero-padded): below 0x80, adding 0x3F sets a
// byte's top bit from 'A' up and adding 0x25 from past 'Z' up, carry-free.
func folded(b []byte) bool {
	const ones = 0x0101010101010101
	for i := 0; i < len(b); i += 8 {
		var x uint64
		switch {
		case i+8 <= len(b):
			x = binary.LittleEndian.Uint64(b[i:])
		case len(b) >= 8:
			x = binary.LittleEndian.Uint64(b[len(b)-8:])
		default:
			var pad [8]byte
			copy(pad[:], b)
			x = binary.LittleEndian.Uint64(pad[:])
		}
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
