package phonetic

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"github.com/mural-db/mural/internal/types"
)

// sharedShards spreads the engine-lifetime cache over independent locks so
// concurrent sessions' Ψ evaluations don't serialize on one mutex.
const sharedShards = 16

// DefaultSharedEntries bounds the engine-lifetime G2P cache (total across
// shards).
const DefaultSharedEntries = 1 << 18

// CacheStats is a point-in-time snapshot of one cache's counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// SharedCache is a bounded, sharded, engine-lifetime G2P cache: the one
// converter the executor uses at run time. Values stored with their phoneme
// (every UNITEXT value, §3.1) never reach its map, a statement converts each
// constant operand once, so what it serves is a column stored without
// phonemes — bare TEXT, or UNITEXT inserted unmaterialized — each distinct
// (text, lang) pair converted once for the life of the engine. Safe for
// concurrent use.
type SharedCache struct {
	reg    *Registry
	seed   maphash.Seed
	capPer int // per-shard entry cap
	shards [sharedShards]sharedShard

	// Lifetime counters, folded in from the Tallies that counted them when
	// those publish (Tally.Publish): a lookup writes no shared memory.
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type cacheKey struct {
	text string
	lang types.LangID
}

type sharedShard struct {
	mu sync.Mutex
	m  map[cacheKey]string
}

// NewSharedCache returns an empty engine-lifetime cache backed by reg,
// bounded to roughly entries conversions (<=0 uses DefaultSharedEntries).
func NewSharedCache(reg *Registry, entries int) *SharedCache {
	if entries <= 0 {
		entries = DefaultSharedEntries
	}
	capPer := entries / sharedShards
	if capPer < 1 {
		capPer = 1
	}
	return &SharedCache{reg: reg, seed: maphash.MakeSeed(), capPer: capPer}
}

// Registry returns the converter registry behind the cache.
func (c *SharedCache) Registry() *Registry { return c.reg }

func (c *SharedCache) shard(key cacheKey) *sharedShard {
	var h maphash.Hash
	h.SetSeed(c.seed)
	_, _ = h.WriteString(key.text)
	_ = h.WriteByte(byte(key.lang))
	return &c.shards[h.Sum64()%sharedShards]
}

// ToPhoneme returns the phoneme string for u, converting through the
// registry on the first engine-wide sighting of each distinct (text, lang)
// pair. Values carrying a materialized phoneme bypass the cache entirely.
// Hits, misses and evictions are counted into t; Stats sees them once t
// publishes.
func (c *SharedCache) ToPhoneme(u types.UniText, t *Tally) string {
	if u.Phoneme != "" {
		return u.Phoneme
	}
	t.shared = c
	key := cacheKey{text: u.Text, lang: u.Lang}
	s := c.shard(key)
	s.mu.Lock()
	if p, ok := s.m[key]; ok {
		s.mu.Unlock()
		t.sharedHits++
		return p
	}
	s.mu.Unlock()
	t.sharedMisses++
	// Convert outside the shard lock: G2P is the expensive part, and other
	// keys of this shard shouldn't wait behind it. A racing conversion of
	// the same key is wasted work, not an error.
	p := c.reg.Convert(u, t)
	s.mu.Lock()
	if _, ok := s.m[key]; !ok {
		if s.m == nil {
			s.m = make(map[cacheKey]string)
		}
		if len(s.m) >= c.capPer {
			// Random replacement: map iteration order is already randomized,
			// so dropping the first key visited is an O(1) eviction with no
			// bookkeeping on the hit path.
			for k := range s.m {
				delete(s.m, k)
				t.sharedEvictions++
				break
			}
		}
		s.m[key] = p
	}
	s.mu.Unlock()
	return p
}

// Purge drops every entry (DDL invalidation) without resetting counters.
func (c *SharedCache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = nil
		s.mu.Unlock()
	}
}

// Len reports the total entries across shards.
func (c *SharedCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the cache counters: every lookup whose Tally has
// published.
func (c *SharedCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
