package phonetic

import (
	"fmt"
	"sync"
	"testing"

	"github.com/mural-db/mural/internal/types"
)

// Two statements sharing the cache reuse each other's conversions: the
// second one's lookup is a hit, not a fresh conversion, and the cache's
// counters move only when a statement's tally publishes.
func TestSharedCacheServesAcrossStatements(t *testing.T) {
	shared := NewSharedCache(DefaultRegistry(), 1024)
	u := types.UniText{Text: "Krishna", Lang: types.LangEnglish}
	var first Tally
	want := shared.ToPhoneme(u, &first)
	if s := shared.Stats(); s.Misses != 0 {
		t.Fatalf("a lookup reached the cache's counters before its tally published: %+v", s)
	}
	first.Publish()
	if s := shared.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first conversion: %+v, want 1 miss 0 hits", s)
	}

	var second Tally
	if got := shared.ToPhoneme(u, &second); got != want {
		t.Fatalf("second statement's phoneme = %q, want %q", got, want)
	}
	second.Publish()
	s := shared.Stats()
	if s.Hits != 1 {
		t.Fatalf("second statement did not hit the shared cache: %+v", s)
	}
	if s.Entries != 1 {
		t.Fatalf("shared entries = %d, want 1", s.Entries)
	}
}

// The shared cache is bounded per shard and counts its evictions.
func TestSharedCacheBoundedAndCounted(t *testing.T) {
	reg := DefaultRegistry()
	shared := NewSharedCache(reg, 32) // tiny: forces evictions across shards
	var tl Tally
	for i := 0; i < 500; i++ {
		shared.ToPhoneme(types.UniText{Text: fmt.Sprintf("n%d", i), Lang: types.LangEnglish}, &tl)
	}
	tl.Publish()
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
	var tl Tally
	shared.ToPhoneme(u, &tl)
	shared.ToPhoneme(u, &tl)
	shared.Purge()
	if shared.Len() != 0 {
		t.Fatalf("Len after purge = %d", shared.Len())
	}
	shared.ToPhoneme(u, &tl)
	tl.Publish()
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
			var tl Tally
			defer tl.Publish()
			for i := 0; i < 200; i++ {
				u := types.UniText{Text: fmt.Sprintf("n%d", i%64), Lang: types.LangEnglish}
				if got, want := shared.ToPhoneme(u, &tl), reg.ToPhoneme(u); got != want {
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
