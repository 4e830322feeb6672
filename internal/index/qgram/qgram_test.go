package qgram

import (
	"math/rand"
	"testing"

	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/storage"
)

func rid(i int) storage.RID {
	return storage.RID{Page: storage.PageID(i/100 + 1), Slot: uint16(i % 100)}
}

func corpus(n int, seed int64) []string {
	bases := []string{"nehru", "gandi", "aʃok", "kamala", "kriʃnan", "patel", "menon", "a", "xy"}
	alphabet := []rune("aeiouknrstmpl")
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n)
	for len(out) < n {
		b := []rune(bases[rng.Intn(len(bases))])
		if rng.Intn(2) == 0 && len(b) > 1 {
			b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
		}
		out = append(out, string(b))
	}
	return out
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	ix := New()
	data := corpus(1500, 3)
	for i, s := range data {
		if err := ix.Insert(s, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 1500 {
		t.Fatalf("Len = %d", ix.Len())
	}
	for _, q := range []string{"nehru", "patel", "a", "", "zzzzzz"} {
		for k := 0; k <= 3; k++ {
			want := map[storage.RID]bool{}
			for i, s := range data {
				if phonetic.WithinDistance(q, s, k) {
					want[rid(i)] = true
				}
			}
			rids, _, err := ix.RangeSearch(q, k)
			if err != nil {
				t.Fatal(err)
			}
			got := map[storage.RID]bool{}
			for _, r := range rids {
				if got[r] {
					t.Errorf("q=%q k=%d: duplicate %v", q, k, r)
				}
				got[r] = true
			}
			if len(got) != len(want) {
				t.Errorf("q=%q k=%d: got %d want %d", q, k, len(got), len(want))
				continue
			}
			for r := range want {
				if !got[r] {
					t.Errorf("q=%q k=%d: missing %v", q, k, r)
				}
			}
		}
	}
}

func TestCountFilterPrunes(t *testing.T) {
	ix := New()
	data := corpus(3000, 7)
	for i, s := range data {
		if err := ix.Insert(s, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, st1, err := ix.RangeSearch("kriʃnan", 1)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Degenerate {
		t.Error("k=1 must not degenerate on 7-rune queries")
	}
	if st1.Candidates >= 3000 {
		t.Errorf("count filter verified every entry (%d)", st1.Candidates)
	}
	// Larger threshold verifies more candidates.
	_, st3, err := ix.RangeSearch("kriʃnan", 3)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Candidates < st1.Candidates {
		t.Errorf("candidates must grow with k: %d < %d", st3.Candidates, st1.Candidates)
	}
}

func TestDeleteAndReuse(t *testing.T) {
	ix := New()
	if err := ix.Insert("nehru", rid(1)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete("nehru", rid(1)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete("nehru", rid(1)); err == nil {
		t.Error("double delete must fail")
	}
	rids, _, err := ix.RangeSearch("nehru", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 0 {
		t.Errorf("deleted entry found: %v", rids)
	}
	// Slot reuse.
	if err := ix.Insert("gandi", rid(2)); err != nil {
		t.Fatal(err)
	}
	rids, _, _ = ix.RangeSearch("gandi", 0)
	if len(rids) != 1 || rids[0] != rid(2) {
		t.Errorf("reused slot search: %v", rids)
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d", ix.Len())
	}
}

func TestEmptyAndShortStrings(t *testing.T) {
	ix := New()
	for i, s := range []string{"", "a", "ab"} {
		if err := ix.Insert(s, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	rids, st, err := ix.RangeSearch("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	// "", "a", "ab" are all within 1 of "a".
	if len(rids) != 3 {
		t.Errorf("short-string search found %d (stats %+v)", len(rids), st)
	}
}

func BenchmarkQGramSearch(b *testing.B) {
	ix := New()
	data := corpus(10000, 5)
	for i, s := range data {
		if err := ix.Insert(s, rid(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.RangeSearch("nehru", 2); err != nil {
			b.Fatal(err)
		}
	}
}
