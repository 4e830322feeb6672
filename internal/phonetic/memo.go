package phonetic

import "github.com/mural-db/mural/internal/types"

// DefaultMemoEntries bounds the per-query memo. A scan over millions of
// distinct names must not hold the whole column's phonemes in memory; at
// the cap, insertions evict an arbitrary existing entry (random
// replacement — O(1) and no bookkeeping on the hit path).
const DefaultMemoEntries = 1 << 16

// MemoCache memoizes grapheme-to-phoneme conversions for the duration of
// one query (one executor worker, in a parallel plan). Values that already
// carry a materialized phoneme string are returned directly, exactly as
// Registry.ToPhoneme does; everything else is converted at most once per
// distinct (text, lang) pair while it stays resident.
//
// A MemoCache is NOT safe for concurrent use: the executor gives each
// worker its own instance, which keeps the hot path free of locks. When a
// shared engine-lifetime cache is attached (SetShared), the memo acts as a
// lock-free L1 over it.
type MemoCache struct {
	reg    *Registry
	shared *SharedCache
	m      map[memoKey]string
	cap    int
}

type memoKey struct {
	text string
	lang types.LangID
}

// NewMemoCache returns an empty per-query cache backed by reg, bounded to
// DefaultMemoEntries conversions.
func NewMemoCache(reg *Registry) *MemoCache {
	return &MemoCache{reg: reg, cap: DefaultMemoEntries}
}

// SetCap overrides the memo's entry bound (<=0 keeps the current cap).
func (c *MemoCache) SetCap(n int) {
	if n > 0 {
		c.cap = n
	}
}

// SetShared attaches an engine-lifetime L2: memo misses consult (and fill)
// the shared cache instead of converting directly, so distinct queries
// reuse each other's conversions.
func (c *MemoCache) SetShared(s *SharedCache) { c.shared = s }

// ToPhoneme returns the phoneme string for u, converting on the first
// sighting of each distinct (text, lang) pair and serving repeats from the
// memo (or the attached shared cache). It counts into t, which the memo's
// owner publishes.
func (c *MemoCache) ToPhoneme(u types.UniText, t *Tally) string {
	if u.Phoneme != "" {
		t.hits++
		return u.Phoneme
	}
	key := memoKey{text: u.Text, lang: u.Lang}
	if p, ok := c.m[key]; ok {
		t.hits++
		return p
	}
	t.misses++
	var p string
	if c.shared != nil {
		p = c.shared.ToPhoneme(u, t)
	} else {
		p = c.reg.Convert(u, t)
	}
	if c.m == nil {
		c.m = make(map[memoKey]string)
	}
	if c.cap > 0 && len(c.m) >= c.cap {
		for k := range c.m {
			delete(c.m, k)
			t.evictions++
			break
		}
	}
	c.m[key] = p
	return p
}

// Len reports the number of memoized conversions currently resident.
func (c *MemoCache) Len() int { return len(c.m) }
