package mdi

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/storage"
)

func newIndex(t testing.TB) *Index {
	t.Helper()
	pool := storage.NewPool(256)
	pool.AttachDisk(1, storage.NewMemDisk())
	ix, err := Create(pool, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func rid(i int) storage.RID {
	return storage.RID{Page: storage.PageID(i/100 + 1), Slot: uint16(i % 100)}
}

func corpus(n int) []string {
	bases := []string{"nehru", "gandi", "aʃok", "kamala", "kriʃnan", "patel", "menon"}
	alphabet := []rune("aeiouknrstmpl")
	rng := rand.New(rand.NewSource(5))
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
	ix := newIndex(t)
	data := corpus(1500)
	for i, s := range data {
		if err := ix.Insert(s, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{"nehru", "patel", "xyzzy"} {
		for k := 0; k <= 3; k++ {
			want := make(map[storage.RID]bool)
			for i, s := range data {
				if phonetic.WithinDistance(q, s, k) {
					want[rid(i)] = true
				}
			}
			rids, _, cands, err := ix.RangeSearch(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(rids) != len(want) {
				t.Errorf("q=%q k=%d: got %d, want %d", q, k, len(rids), len(want))
			}
			for _, r := range rids {
				if !want[r] {
					t.Errorf("q=%q k=%d: spurious rid %v", q, k, r)
				}
			}
			if cands < len(rids) {
				t.Errorf("candidates %d < matches %d", cands, len(rids))
			}
		}
	}
}

func TestCandidateSupersetIsLoose(t *testing.T) {
	// MDI's point (and the paper's point about outside-the-server indexing):
	// the candidate set is a superset that grows with the threshold.
	ix := newIndex(t)
	data := corpus(2000)
	for i, s := range data {
		if err := ix.Insert(s, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, c0, err := ix.RangeSearch("nehru", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, c3, err := ix.RangeSearch("nehru", 3)
	if err != nil {
		t.Fatal(err)
	}
	if c3 < c0 {
		t.Errorf("candidates must grow with threshold: k0=%d k3=%d", c0, c3)
	}
}

func TestDelete(t *testing.T) {
	ix := newIndex(t)
	if err := ix.Insert("nehru", rid(1)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete("nehru", rid(1)); err != nil {
		t.Fatal(err)
	}
	rids, _, _, err := ix.RangeSearch("nehru", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 0 {
		t.Errorf("deleted entry still found: %v", rids)
	}
}

func TestPivotPersistsViaCaller(t *testing.T) {
	pool := storage.NewPool(64)
	disk := storage.NewMemDisk()
	pool.AttachDisk(2, disk)
	ix, err := Create(pool, 2, "customvp")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Pivot() != "customvp" {
		t.Errorf("Pivot = %q", ix.Pivot())
	}
	if err := ix.Insert("nehru", rid(0)); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(pool, 2, "customvp")
	if err != nil {
		t.Fatal(err)
	}
	rids, _, _, err := ix2.RangeSearch("nehru", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 1 {
		t.Errorf("reopened search found %d", len(rids))
	}
	var entries int
	err = ix2.bt.Range(nil, nil, func(key []byte, r storage.RID) bool {
		entries++
		if string(key) != string(ix2.key("nehru")) || r != rid(0) {
			t.Errorf("reopened entry (%q, %v), want (%q, %v)", key, r, ix2.key("nehru"), rid(0))
		}
		return true
	})
	if err != nil || entries != 1 {
		t.Errorf("reopened index holds %d entries (%v), want 1", entries, err)
	}
}

func TestDefaultPivot(t *testing.T) {
	ix := newIndex(t)
	if ix.Pivot() != DefaultPivot {
		t.Errorf("empty pivot must default, got %q", ix.Pivot())
	}
}

func BenchmarkMDIRangeSearch(b *testing.B) {
	pool := storage.NewPool(512)
	pool.AttachDisk(1, storage.NewMemDisk())
	ix, err := Create(pool, 1, "")
	if err != nil {
		b.Fatal(err)
	}
	data := corpus(10000)
	for i, s := range data {
		if err := ix.Insert(s, rid(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ix.RangeSearch("nehru", 2); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleIndex_RangeSearch() {
	pool := storage.NewPool(64)
	pool.AttachDisk(1, storage.NewMemDisk())
	ix, _ := Create(pool, 1, "")
	_ = ix.Insert("nehru", storage.RID{Page: 1, Slot: 0})
	_ = ix.Insert("neru", storage.RID{Page: 1, Slot: 1})
	_ = ix.Insert("gandi", storage.RID{Page: 1, Slot: 2})
	rids, _, _, _ := ix.RangeSearch("nehru", 1)
	fmt.Println(len(rids))
	// Output: 2
}
