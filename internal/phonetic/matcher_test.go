package phonetic

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/types"
)

// sig is the rune-set signature of s.
func sig(s string) uint64 { return types.Summarize([]byte(s)).Sig }

// BoundedMatcher must agree with WithinDistance on random inputs, including
// multi-byte runes, candidates of any length, and patterns too long for a
// word (the banded-DP fallback).
func TestBoundedMatcherDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// 'a' and 'ɪ', 'ʃ' and 'z' share a signature bit: a candidate can lack a
	// pattern rune without the signature showing it.
	alphabet := []rune("abcdəɪʃɳæz")
	if sig("a") != sig("ɪ") || sig("ʃ") != sig("z") {
		t.Fatal("the alphabet no longer holds a colliding pair")
	}
	randStr := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for trial := 0; trial < 2000; trial++ {
		p := randStr(rng.Intn(12))
		c := randStr(rng.Intn(12))
		k := rng.Intn(5)
		m := NewBoundedMatcher(p, k)
		want := WithinDistance(p, c, k)
		if got := m.Match(c); got != want {
			t.Fatalf("Match(%q,%q,k=%d) = %v, want %v", p, c, k, got, want)
		}
		if got := m.MatchBytes([]byte(c)); got != want {
			t.Fatalf("MatchBytes(%q,%q,k=%d) = %v, want %v", p, c, k, got, want)
		}
		if got := m.MatchSummary([]byte(c), types.Summarize([]byte(c))); got != want {
			t.Fatalf("MatchSummary(%q,%q,k=%d) = %v, want %v", p, c, k, got, want)
		}
	}

	// A pattern past 64 runes takes the banded DP.
	long := strings.Repeat("ab", 40) // 80 runes
	m := NewBoundedMatcher(long, 3)
	if !m.Match(long) {
		t.Error("long pattern should match itself")
	}
	if !m.MatchBytes([]byte(long[:len(long)-2] + "xx")) {
		t.Error("long candidate within threshold should match")
	}
	if m.Match(strings.Repeat("cd", 40)) {
		t.Error("distant long candidate should not match")
	}
	short := NewBoundedMatcher("abc", 2)
	if short.MatchBytes([]byte(long)) {
		t.Error("short pattern vs 80-rune candidate should reject")
	}
	if NewBoundedMatcher("abc", -1).Match("abc") {
		t.Error("a negative threshold admits nothing")
	}
}

// A candidate of any length streams through the word-sized pattern: nothing
// about the candidate is buffered, so nothing caps it.
func TestBoundedMatcherLongCandidate(t *testing.T) {
	p := strings.Repeat("aʃ", 32) // 64 runes: just fits
	for _, tc := range []struct {
		cand string
		k    int
	}{
		{p + "ə", 1},
		{p + "ə", 0},
		{"ə" + p + "ə", 2},
		{p + p, 64},
		{p + p, 63},
		{strings.Repeat("x", 300), 300},
	} {
		want := EditDistance(p, tc.cand) <= tc.k
		if got := NewBoundedMatcher(p, tc.k).MatchBytes([]byte(tc.cand)); got != want {
			t.Errorf("64-rune pattern vs %d-rune candidate, k=%d: got %v, want %v", len([]rune(tc.cand)), tc.k, got, want)
		}
	}
	m := NewBoundedMatcher(p, 3)
	cand := []byte(p + "əə")
	if allocs := testing.AllocsPerRun(100, func() { m.MatchBytes(cand) }); allocs != 0 {
		t.Errorf("66-rune candidate allocates %.1f/op, want 0", allocs)
	}
}

// Invalid UTF-8 reads as []rune(string) reads it: each bad byte is one
// U+FFFD. The summary counts and signs the same way, so a candidate whose
// byte length and rune length diverge is neither over- nor under-rejected.
func TestBoundedMatcherInvalidUTF8(t *testing.T) {
	cands := []string{
		"a\xffb", "\xff\xfe\xfd", "a\xe2\x82", "\xe2\x82\xacx", "\xc0\xaf", "\xed\xa0\x80", "\xf4\x90\x80\x80",
		"a\uFFFDb", "\x80", "",
	}
	for _, p := range cands {
		for _, c := range cands {
			var want types.Summary
			for _, r := range []rune(c) {
				want.Runes++
				want.Sig |= sig(string(r))
			}
			if got := types.Summarize([]byte(c)); got != want {
				t.Fatalf("Summarize(%q) = %+v, []rune sees %+v", c, got, want)
			}
			for k := 0; k <= 3; k++ {
				want := EditDistance(p, c) <= k
				if got := NewBoundedMatcher(p, k).MatchBytes([]byte(c)); got != want {
					t.Errorf("MatchBytes(%q,%q,k=%d) = %v, want %v", p, c, k, got, want)
				}
			}
		}
	}
}

// The fast path is the per-row cost of a fused Ψ scan; it must not allocate.
func TestBoundedMatcherZeroAllocations(t *testing.T) {
	m := NewBoundedMatcher("nasər", 2)
	cand := []byte("naʃər")
	allocs := testing.AllocsPerRun(500, func() {
		m.MatchBytes(cand)
		m.Match("nasir")
		m.MatchSummary(cand, types.Summarize(cand))
	})
	if allocs != 0 {
		t.Errorf("BoundedMatcher fast path allocates %.1f/op, want 0", allocs)
	}
}

// One probe against a stream of stored phonemes is the fused Ψ scan's inner
// loop: most candidates differ from the probe and many differ in length.
func BenchmarkBoundedMatcherMatchBytes(b *testing.B) {
	var cands [][]byte
	for _, p := range benchPhonemePairs {
		cands = append(cands, []byte(p[0]), []byte(p[1]))
	}
	m := NewBoundedMatcher("ramakriʃnan", 2)
	b.ReportAllocs()
	b.ResetTimer()
	matched := 0
	for i := 0; i < b.N; i++ {
		if m.MatchBytes(cands[i%len(cands)]) {
			matched++
		}
	}
	benchMatched = matched
}

// benchMatched keeps the benchmark's matches observable, so the compiler
// cannot drop the calls.
var benchMatched int
