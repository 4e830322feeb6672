package phonetic

import (
	"math/bits"
	"unicode/utf8"

	"github.com/mural-db/mural/internal/types"
)

// BoundedMatcher answers "is the edit distance to this pattern ≤ k" over a
// stream of candidates. Everything that depends only on the pattern is done
// once, at compile time: the pattern's runes are folded into a rune→bitmask
// match table (bit j of a rune's mask is set when pattern[j] is that rune),
// which is the only per-character input the Myers (1999) bit-parallel step
// needs. Matching then streams the candidate's UTF-8 straight through that
// step with the pattern as the fixed (vertical) side — no rune buffer, no
// operand swap, no limit on the candidate's length — after a prefilter has
// rejected every candidate whose length or rune set alone puts it more than
// k edits away (Rejects, over the candidate's types.Summary); the pattern's
// rune-set signature is compiled with its match table. The executor's fused
// Ψ kernels compile one matcher per scan; a candidate costs zero heap
// allocations whenever the pattern fits a machine word (≤ 64 runes, i.e.
// essentially every phoneme string).
//
// Invalid UTF-8 is read as utf8.DecodeRune reads it — each bad byte is one
// U+FFFD — which is also how []rune(string) and therefore EditDistance and
// BoundedEditDistance, the reference implementations, see it.
type BoundedMatcher struct {
	Prefilter
	// ascii is the match table for runes below utf8.RuneSelf, indexed
	// directly; tab is the open-addressed table for the rest, a power of two
	// at least twice the pattern's length. A slot with mask 0 is empty: a
	// rune that occurs in the pattern always has a non-zero mask.
	ascii [utf8.RuneSelf]uint64
	tab   []matchSlot
	shift uint
	// long holds the pattern's runes when it does not fit a word; such
	// patterns go through the banded DP instead.
	long []rune
}

// Prefilter is what the prefilter (Rejects) reads of a matcher: a value a
// caller can copy out of the matcher and keep in registers across a loop of
// candidates.
type Prefilter struct {
	k   int
	m   int    // pattern length in runes
	sig uint64 // the pattern's rune-set signature (types.Summary)
}

type matchSlot struct {
	r    rune
	mask uint64
}

// NewBoundedMatcher compiles pattern for threshold k.
func NewBoundedMatcher(pattern string, k int) *BoundedMatcher {
	runes := []rune(pattern)
	m := &BoundedMatcher{Prefilter: Prefilter{k: k, m: len(runes), sig: types.Summarize([]byte(pattern)).Sig}}
	if len(runes) > 64 {
		m.long = runes
		return m
	}
	lg := uint(1)
	for 1<<lg < 2*len(runes) {
		lg++
	}
	m.tab = make([]matchSlot, 1<<lg)
	m.shift = 32 - lg
	for j, r := range runes {
		if r < utf8.RuneSelf {
			m.ascii[r] |= 1 << uint(j)
			continue
		}
		i := m.slot(r)
		for m.tab[i].mask != 0 && m.tab[i].r != r {
			i = (i + 1) & (len(m.tab) - 1)
		}
		m.tab[i].r = r
		m.tab[i].mask |= 1 << uint(j)
	}
	return m
}

// slot is the home position of r in the match table (Fibonacci hashing).
func (m *BoundedMatcher) slot(r rune) int {
	return int(uint32(r) * 0x9E3779B1 >> m.shift)
}

// Match reports whether the distance between the pattern and cand is ≤ k.
// The conversion does not copy: MatchBytes neither keeps nor writes its
// argument.
func (m *BoundedMatcher) Match(cand string) bool {
	return m.MatchBytes([]byte(cand))
}

// MatchBytes is Match over a raw UTF-8 byte view, for a candidate with no
// stored summary: a converted phoneme.
func (m *BoundedMatcher) MatchBytes(cand []byte) bool {
	// A candidate has at most one rune per byte, so the byte length settles
	// the short side of the length filter without a summary.
	if m.m-len(cand) > m.k {
		return false
	}
	return m.MatchSummary(cand, types.Summarize(cand))
}

// Rejects is the prefilter, over a candidate's types.Summary: two lower
// bounds on the edit distance, each compared with k before the edit distance
// itself runs. The length filter:
// the distance is at least the difference in length. The signature filter:
// every bit of the pattern's signature that the candidate's lacks marks at
// least one distinct pattern rune the candidate does not contain, and each
// such rune costs an edit of its own (its positions must be deleted or
// substituted, one position per edit); a collision merges runes into one
// bit, which only lowers the count. The same holds with the roles swapped.
// The four bounds are compared as one, their maximum, without a branch, so a
// select loop's outcome costs no misprediction; the maximum is never
// negative, so a negative k rejects every candidate.
func (m Prefilter) Rejects(s types.Summary) bool {
	return max(s.Runes-m.m, m.m-s.Runes, bits.OnesCount64(m.sig&^s.Sig), bits.OnesCount64(s.Sig&^m.sig)) > m.k
}

// MatchSummary is MatchBytes over a candidate whose summary is s, which must
// be types.Summarize(cand) — a stored value's keys hold it: only what
// survives the prefilter runs the edit distance, Myers' step or, for a
// pattern past 64 runes, the banded DP.
func (m *BoundedMatcher) MatchSummary(cand []byte, s types.Summary) bool {
	if m.Rejects(s) {
		return false
	}
	n := s.Runes
	if m.m == 0 {
		return true // distance is n, and n ≤ k was just established
	}
	if m.long != nil {
		_, ok := boundedEditDistanceRunes(m.long, []rune(string(cand)), m.k)
		return ok
	}
	// Myers' column step. vp/vn hold the vertical +1/−1 deltas of the
	// current DP column, one bit per pattern position; score is the column's
	// bottom cell, D[m][j], after j candidate runes.
	vp := ^uint64(0) >> (64 - uint(m.m))
	vn := uint64(0)
	top := uint64(1) << (uint(m.m) - 1)
	score := m.m
	mask := len(m.tab) - 1
	for i := 0; i < len(cand); {
		var pm uint64
		if c := cand[i]; c < utf8.RuneSelf {
			pm = m.ascii[c]
			i++
		} else {
			r, w := utf8.DecodeRune(cand[i:])
			i += w
			s := m.slot(r)
			for m.tab[s].r != r && m.tab[s].mask != 0 {
				s = (s + 1) & mask
			}
			pm = m.tab[s].mask
		}
		d0 := (((pm & vp) + vp) ^ vp) | pm | vn
		hp := vn | ^(d0 | vp)
		hn := d0 & vp
		if hp&top != 0 {
			score++
		} else if hn&top != 0 {
			score--
		}
		hp = hp<<1 | 1
		hn <<= 1
		vp = hn | ^(d0 | hp)
		vn = d0 & hp
		// The bottom cell drops by at most 1 per remaining candidate rune:
		// stop as soon as k is out of reach.
		n--
		if score-n > m.k {
			return false
		}
	}
	return score <= m.k
}
