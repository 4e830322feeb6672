package phonetic

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/metrics"
	"github.com/mural-db/mural/internal/types"
)

// myersRef runs BoundedEditDistance through the bit-parallel path only,
// failing the test if the inputs would not take it.
func myersRef(t *testing.T, a, b string, k int) (int, bool) {
	t.Helper()
	var pa, pb [64]rune
	na, aok := runesInto(a, &pa)
	nb, bok := runesInto(b, &pb)
	if !aok || !bok {
		t.Fatalf("myersRef: inputs exceed 64 runes (%q, %q)", a, b)
	}
	return myersBounded(pa[:na], pb[:nb], k)
}

func TestMyersMatchesBandedDP(t *testing.T) {
	cases := [][2]string{
		{"", ""},
		{"", "a"},
		{"a", ""},
		{"a", "a"},
		{"a", "b"},
		{"ab", "ba"},
		{"kitten", "sitting"},
		{"sunday", "saturday"},
		{"kriʃnamurti", "kriʃnamurati"},
		{"kriʃna", "krisna"},
		{"ʃaŋkar", "ʃəŋkər"},
		{"abcdefghijklmnopqrstuvwxyz", "abcdefghijklmnopqrstuvwxyz"},
		{strings.Repeat("a", 64), strings.Repeat("a", 64)},
		{strings.Repeat("a", 64), strings.Repeat("b", 64)},
		{strings.Repeat("ab", 32), strings.Repeat("ba", 32)},
	}
	for _, c := range cases {
		want := EditDistance(c[0], c[1])
		for k := 0; k <= want+3; k++ {
			d, ok := myersRef(t, c[0], c[1], k)
			if ok != (want <= k) {
				t.Errorf("myers(%q,%q,k=%d): ok=%v, want %v (d=%d)", c[0], c[1], k, ok, want <= k, want)
			}
			if ok && d != want {
				t.Errorf("myers(%q,%q,k=%d) = %d, want %d", c[0], c[1], k, d, want)
			}
		}
	}
}

func TestMyersRandomAgainstFullDP(t *testing.T) {
	rng := rand.New(rand.NewSource(2006))
	alphabet := []rune("abʃʒŋəti")
	randStr := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for i := 0; i < 2000; i++ {
		a := randStr(rng.Intn(65))
		b := randStr(rng.Intn(65))
		k := rng.Intn(10)
		want := EditDistance(a, b)
		d, ok := myersRef(t, a, b, k)
		if ok != (want <= k) {
			t.Fatalf("myers(%q,%q,k=%d): ok=%v, want %v (d=%d)", a, b, k, ok, want <= k, want)
		}
		if ok && d != want {
			t.Fatalf("myers(%q,%q,k=%d) = %d, want %d", a, b, k, d, want)
		}
	}
}

func TestBoundedEditDistanceLongFallback(t *testing.T) {
	// Over 64 runes on either side must take the banded DP and still agree
	// with the full DP.
	a := strings.Repeat("kriʃna", 12) // 72 runes
	b := strings.Repeat("kriʃna", 12)[:len("kriʃna")*11] + "krisna"
	want := EditDistance(a, b)
	d, ok := BoundedEditDistance(a, b, want)
	if !ok || d != want {
		t.Fatalf("BoundedEditDistance(long) = %d,%v want %d,true", d, ok, want)
	}
	if _, ok := BoundedEditDistance(a, b, want-1); ok {
		t.Fatalf("BoundedEditDistance(long, k=%d) succeeded below the true distance", want-1)
	}
}

// A Tally keeps every G2P event off the shared counters until it publishes;
// a materialized value is a hit and never reaches the shared cache.
func TestTallyPublishesG2PCounts(t *testing.T) {
	metrics.Default.Reset()
	reg := DefaultRegistry()
	shared := NewSharedCache(reg, 1024)
	var tl Tally

	u := types.UniText{Text: "Krishna", Lang: types.LangEnglish}
	first := shared.ToPhoneme(u, &tl)
	if got := shared.ToPhoneme(u, &tl); got != first {
		t.Fatalf("cached phoneme mismatch: %q vs %q", got, first)
	}
	reg.Convert(reg.Materialize(types.UniText{Text: "Crishna", Lang: types.LangEnglish}), &tl)
	if snap := metrics.Default.Snapshot(); snap.Counters["mural_g2p_shared_cache_hits_total"]+snap.Counters["mural_g2p_shared_cache_misses_total"] != 0 {
		t.Fatalf("lookups reached the process-wide counters before Publish: %v", snap.Counters)
	}
	tl.Publish()
	snap := metrics.Default.Snapshot()
	for name, want := range map[string]int64{
		"mural_g2p_shared_cache_misses_total": 1,
		"mural_g2p_shared_cache_hits_total":   1,
		// Materialize publishes its own conversion at once.
		"mural_g2p_conversions_total": 2,
		"mural_g2p_cache_hits_total":  1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if s := shared.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("shared cache stats = %+v, want 1 hit 1 miss", s)
	}
}

func FuzzEditDistanceAgree(f *testing.F) {
	f.Add("kriʃnamurti", "kriʃnamurati", 3)
	f.Add("", "", 0)
	f.Add("a", "", 1)
	f.Add("kitten", "sitting", 2)
	f.Add("कृष्ण", "kriʃna", 4)
	f.Add("தமிழ்", "tamiɻ", 5)
	f.Add(strings.Repeat("ab", 40), strings.Repeat("ba", 40), 6)
	f.Add(strings.Repeat("x", 64), strings.Repeat("x", 65), 1)
	// The compiled matcher's corners: a pattern that just fits a word against
	// a candidate that does not and the reverse, multi-byte IPA on both
	// sides, invalid UTF-8 (each bad byte is one U+FFFD), exact match only.
	f.Add(strings.Repeat("ʃ", 64), strings.Repeat("ʃ", 65), 1)
	f.Add(strings.Repeat("ə", 65), strings.Repeat("ə", 64), 1)
	f.Add("tʃəndrəʃekər", "tʃandraʃekhar", 4)
	f.Add("a\xffb", "a\uFFFDb", 0)
	f.Add("\xe2\x82", "\xff\xfe", 0)
	f.Add("nasər", "nasər", 0)
	f.Add("nasər", "nasir", 0)
	f.Add("", "ab", 2)
	// The prefilter's corners: two runes that share a signature bit ('a' and
	// 'ɪ'), a permutation of the pattern (equal signatures, distance > k), an
	// empty pattern against k+1 distinct runes, an invalid byte against the
	// U+FFFD it reads as.
	f.Add("nasər", "nɪsər", 0)
	f.Add("abcdef", "fedcba", 2)
	f.Add("", "abc", 2)
	f.Add("\xff", "\uFFFD", 0)
	f.Fuzz(func(t *testing.T, a, b string, k int) {
		if k < 0 || k > 128 {
			return
		}
		if len(a) > 256 || len(b) > 256 {
			return
		}
		want := EditDistance(a, b)
		// The dispatching entry point (Myers for ≤64 runes, banded DP
		// otherwise) must agree with the unbounded reference DP.
		d, ok := BoundedEditDistance(a, b, k)
		if ok != (want <= k) {
			t.Fatalf("BoundedEditDistance(%q,%q,%d): ok=%v, reference distance %d", a, b, k, ok, want)
		}
		if ok && d != want {
			t.Fatalf("BoundedEditDistance(%q,%q,%d) = %d, reference %d", a, b, k, d, want)
		}
		// The compiled matcher (a as the pattern, b streamed as raw bytes
		// and as a string) must answer what the reference answers.
		m := NewBoundedMatcher(a, k)
		if got := m.MatchBytes([]byte(b)); got != (want <= k) {
			t.Fatalf("NewBoundedMatcher(%q,%d).MatchBytes(%q) = %v, reference distance %d", a, k, b, got, want)
		}
		if got := m.Match(b); got != (want <= k) {
			t.Fatalf("NewBoundedMatcher(%q,%d).Match(%q) = %v, reference distance %d", a, k, b, got, want)
		}
		if got := m.MatchSummary([]byte(b), types.Summarize([]byte(b))); got != (want <= k) {
			t.Fatalf("NewBoundedMatcher(%q,%d).MatchSummary(%q) = %v, reference distance %d", a, k, b, got, want)
		}
		// And over the summary a heap slot keeps (types.AppendSlotKeys), read
		// back as a scan reads it: its rune count is exact, since the length
		// filter and Myers' early exit rely on it, or it overflowed its byte
		// and the scan matches the phoneme whole (MatchBytes, above).
		_, st, keyed := types.SlotKeys(types.AppendSlotKeys(nil, types.Tuple{types.NewUniText(types.UniText{Text: "x", Phoneme: b})}, 0, types.Unlabelled))
		if !keyed {
			t.Fatalf("no slot keys for %q", b)
		}
		if st.Phoneme.Runes != types.RunesOverflow && m.MatchSummary([]byte(b), st.Phoneme) != (want <= k) {
			t.Fatalf("NewBoundedMatcher(%q,%d).MatchSummary over the stored summary of %q = %v; reference distance %d", a, k, b, !(want <= k), want)
		}
		// And the banded DP must agree with Myers on inputs where both
		// apply, regardless of which one the entry point picked.
		ra, rb := []rune(a), []rune(b)
		if len(ra) <= 64 && len(rb) <= 64 {
			bd, bok := boundedEditDistanceRunes(ra, rb, k)
			if bok != ok || (ok && bd != d) {
				t.Fatalf("banded(%q,%q,%d) = %d,%v but myers = %d,%v", a, b, k, bd, bok, d, ok)
			}
		}
	})
}

// Phoneme-length distribution drawn from the paper's name workloads: most
// phoneme strings are 5–20 code points, with a tail toward longer compound
// names. The bit-parallel kernel must beat the banded DP across this mix.
var benchPhonemePairs = [][2]string{
	{"kriʃna", "krisna"},
	{"ʃaŋkar", "ʃəŋkər"},
	{"kriʃnamurti", "kriʃnamurati"},
	{"ʋeŋkateʃʋara", "ʋeŋkatesʋara"},
	{"ramakriʃnan", "rəmakriʃnən"},
	{"sattjanarajanamurti", "satjanarajanamurti"},
	{"tʃandraʃekharasubramanjam", "tʃəndrəʃekərəsubrəmənjəm"},
}

func BenchmarkBoundedEditDistanceMyers(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := benchPhonemePairs[i%len(benchPhonemePairs)]
		BoundedEditDistance(p[0], p[1], 3)
	}
}

func BenchmarkBoundedEditDistanceBandedDP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := benchPhonemePairs[i%len(benchPhonemePairs)]
		boundedEditDistanceRunes([]rune(p[0]), []rune(p[1]), 3)
	}
}
