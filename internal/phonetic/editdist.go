// Package phonetic provides the phonetic substrate for the LexEQUAL (Ψ)
// operator: grapheme-to-phoneme converters that render multilingual text
// into a canonical IPA alphabet (standing in for the Dhvani engine used by
// the paper), and Levenshtein edit-distance routines, including the
// threshold-banded variant that the paper's cost models assume ("all
// edit-distance computations were implemented using the diagonal transition
// algorithm", §3.3).
package phonetic

// EditDistance returns the Levenshtein distance between a and b, computed
// over Unicode code points with the classic O(len(a)·len(b)) dynamic
// program using two rolling rows.
func EditDistance(a, b string) int {
	return editDistanceRunes([]rune(a), []rune(b))
}

func editDistanceRunes(ra, rb []rune) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	// Keep the shorter string as the row for O(min) space.
	if len(rb) > len(ra) {
		ra, rb = rb, ra
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		ai := ra[i-1]
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ai == rb[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitute / match
			if d := prev[j] + 1; d < m { // delete
				m = d
			}
			if d := cur[j-1] + 1; d < m { // insert
				m = d
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// BoundedEditDistance reports whether the Levenshtein distance between a and
// b is at most k, and if so returns the exact distance. Strings of at most
// 64 code points — which covers essentially every phoneme string Ψ compares
// — take the Myers bit-parallel path, processing a whole DP column per word
// operation with zero heap allocation. Longer inputs fall back to the banded
// (diagonal-restricted) dynamic program in O(k·min(len)) time, in the spirit
// of the diagonal-transition algorithms surveyed by Navarro that the paper's
// implementation uses: cells farther than k from the main diagonal can never
// participate in an alignment of cost ≤ k and are never touched.
func BoundedEditDistance(a, b string, k int) (int, bool) {
	if k < 0 {
		return 0, false
	}
	var pa, pb [64]rune
	na, aok := runesInto(a, &pa)
	nb, bok := runesInto(b, &pb)
	if aok && bok {
		return myersBounded(pa[:na], pb[:nb], k)
	}
	return boundedEditDistanceRunes([]rune(a), []rune(b), k)
}

// runesInto decodes s into buf, reporting the rune count and whether the
// whole string fit. Decoding into a caller-provided fixed array keeps the
// fast path allocation-free.
func runesInto(s string, buf *[64]rune) (int, bool) {
	n := 0
	for _, r := range s {
		if n == len(buf) {
			return n, false
		}
		buf[n] = r
		n++
	}
	return n, true
}

// myersBounded is the Myers (1999) bit-parallel Levenshtein kernel for
// pattern lengths ≤ 64: the vertical delta of one DP column is held in two
// machine words (VP/VN) and advanced with a constant number of word
// operations per text character. The pattern-match vector PM is built with a
// linear scan over the (short) pattern instead of a per-call alphabet map,
// which keeps the kernel allocation-free for arbitrary Unicode.
func myersBounded(ra, rb []rune, k int) (int, bool) {
	gap := len(ra) - len(rb)
	if gap < 0 {
		gap = -gap
	}
	if gap > k {
		return 0, false
	}
	if len(ra) == 0 {
		return len(rb), len(rb) <= k
	}
	if len(rb) == 0 {
		return len(ra), len(ra) <= k
	}
	// Keep the shorter string as the pattern so the score bound is tight.
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	m := uint(len(ra))
	vp := ^uint64(0) >> (64 - m)
	vn := uint64(0)
	score := len(ra)
	mask := uint64(1) << (m - 1)
	for i, c := range rb {
		var pm uint64
		for j, pc := range ra {
			if pc == c {
				pm |= 1 << uint(j)
			}
		}
		d0 := (((pm & vp) + vp) ^ vp) | pm | vn
		hp := vn | ^(d0 | vp)
		hn := d0 & vp
		if hp&mask != 0 {
			score++
		}
		if hn&mask != 0 {
			score--
		}
		hp = hp<<1 | 1
		hn <<= 1
		vp = hn | ^(d0 | hp)
		vn = d0 & hp
		// The final score can drop by at most 1 per remaining text
		// character: prune as soon as the bound is out of reach.
		if rem := len(rb) - i - 1; score-rem > k {
			return 0, false
		}
	}
	if score > k {
		return 0, false
	}
	return score, true
}

func boundedEditDistanceRunes(ra, rb []rune, k int) (int, bool) {
	if k < 0 {
		return 0, false
	}
	// The length gap is an unconditional lower bound on the distance.
	gap := len(ra) - len(rb)
	if gap < 0 {
		gap = -gap
	}
	if gap > k {
		return 0, false
	}
	if len(ra) == 0 {
		return len(rb), len(rb) <= k
	}
	if len(rb) == 0 {
		return len(ra), len(ra) <= k
	}
	if len(rb) > len(ra) {
		ra, rb = rb, ra
	}
	n := len(rb)
	const inf = int(^uint(0) >> 2)
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for j := 0; j <= n && j <= k; j++ {
		prev[j] = j
	}
	for j := k + 1; j <= n; j++ {
		prev[j] = inf
	}
	for i := 1; i <= len(ra); i++ {
		lo := i - k
		if lo < 1 {
			lo = 1
		}
		hi := i + k
		if hi > n {
			hi = n
		}
		if lo > hi {
			return 0, false
		}
		if lo == 1 {
			if i <= k {
				cur[0] = i
			} else {
				cur[0] = inf
			}
		} else {
			cur[lo-1] = inf
		}
		rowMin := inf
		ai := ra[i-1]
		for j := lo; j <= hi; j++ {
			cost := 1
			if ai == rb[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost
			if j <= i+k-1 && j <= n { // prev[j] is inside last row's band iff |i-1-j| <= k
				if d := prev[j] + 1; d < m {
					m = d
				}
			}
			if d := cur[j-1] + 1; d < m {
				m = d
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if hi < n {
			cur[hi+1] = inf // seal the band edge for the next row's prev[j-1] read
		}
		if rowMin > k {
			return 0, false // every cell in the band exceeds k: early exit
		}
		prev, cur = cur, prev
	}
	d := prev[n]
	if d > k {
		return 0, false
	}
	return d, true
}

// WithinDistance reports whether the edit distance between a and b is at
// most k. It is the predicate form used by the Ψ operator.
func WithinDistance(a, b string, k int) bool {
	_, ok := BoundedEditDistance(a, b, k)
	return ok
}
