package phonetic

import (
	"fmt"
	"sync"
	"testing"

	"github.com/mural-db/mural/internal/types"
)

// The per-query memo must stay bounded: before the cap it grew one entry
// per distinct string for the lifetime of the query, which on a scan over a
// high-cardinality column is an unbounded allocation.
func TestMemoCacheBounded(t *testing.T) {
	mc := NewMemoCache(DefaultRegistry())
	mc.SetCap(8)
	for i := 0; i < 100; i++ {
		mc.ToPhoneme(types.UniText{Text: fmt.Sprintf("name%d", i), Lang: types.LangEnglish}, new(Tally))
	}
	if mc.Len() > 8 {
		t.Fatalf("memo grew past its cap: Len = %d, cap 8", mc.Len())
	}
	// Entries still serve correct values after evictions churned the map.
	u := types.UniText{Text: "name99", Lang: types.LangEnglish}
	if got, want := mc.ToPhoneme(u, new(Tally)), DefaultRegistry().ToPhoneme(u); got != want {
		t.Fatalf("post-eviction phoneme = %q, want %q", got, want)
	}
}

// Two memos sharing an L2 must reuse each other's conversions: the second
// memo's lookups are shared-cache hits, not fresh conversions.
func TestSharedCacheServesAcrossMemos(t *testing.T) {
	reg := DefaultRegistry()
	shared := NewSharedCache(reg, 1024)

	m1 := NewMemoCache(reg)
	m1.SetShared(shared)
	u := types.UniText{Text: "Krishna", Lang: types.LangEnglish}
	want := m1.ToPhoneme(u, new(Tally))
	if s := shared.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first conversion: %+v, want 1 miss 0 hits", s)
	}

	m2 := NewMemoCache(reg)
	m2.SetShared(shared)
	if got := m2.ToPhoneme(u, new(Tally)); got != want {
		t.Fatalf("second memo phoneme = %q, want %q", got, want)
	}
	s := shared.Stats()
	if s.Hits != 1 {
		t.Fatalf("second memo did not hit the shared cache: %+v", s)
	}
	if s.Entries != 1 {
		t.Fatalf("shared entries = %d, want 1", s.Entries)
	}
}

// The shared cache is bounded per shard and counts its evictions.
func TestSharedCacheBoundedAndCounted(t *testing.T) {
	reg := DefaultRegistry()
	shared := NewSharedCache(reg, 32) // tiny: forces evictions across shards
	for i := 0; i < 500; i++ {
		shared.ToPhoneme(types.UniText{Text: fmt.Sprintf("n%d", i), Lang: types.LangEnglish}, new(Tally))
	}
	s := shared.Stats()
	if s.Entries > 32+sharedShards {
		t.Fatalf("shared cache over budget: %d entries for cap 32", s.Entries)
	}
	if s.Evictions == 0 {
		t.Error("500 inserts into a 32-entry cache produced no evictions")
	}
	if s.Misses != 500 {
		t.Errorf("misses = %d, want 500 (all distinct)", s.Misses)
	}
}

// Purge empties the cache (DDL invalidation) but keeps lifetime counters.
func TestSharedCachePurge(t *testing.T) {
	shared := NewSharedCache(DefaultRegistry(), 1024)
	u := types.UniText{Text: "Nehru", Lang: types.LangEnglish}
	shared.ToPhoneme(u, new(Tally))
	shared.ToPhoneme(u, new(Tally))
	shared.Purge()
	if shared.Len() != 0 {
		t.Fatalf("Len after purge = %d", shared.Len())
	}
	shared.ToPhoneme(u, new(Tally))
	s := shared.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("counters after purge = %+v, want hits 1 misses 2 (kept across purge)", s)
	}
}

// The shared cache must tolerate concurrent readers and writers (it is the
// one G2P structure every session touches).
func TestSharedCacheConcurrent(t *testing.T) {
	reg := DefaultRegistry()
	shared := NewSharedCache(reg, 256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				u := types.UniText{Text: fmt.Sprintf("n%d", i%64), Lang: types.LangEnglish}
				if got, want := shared.ToPhoneme(u, new(Tally)), reg.ToPhoneme(u); got != want {
					t.Errorf("concurrent phoneme = %q, want %q", got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := shared.Stats(); s.Hits == 0 {
		t.Error("concurrent reuse produced no shared hits")
	}
}
