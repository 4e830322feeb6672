package mural

import (
	"sync"

	"github.com/mural-db/mural/internal/metrics"
	"github.com/mural-db/mural/internal/plan"
)

var (
	mPlanCacheHits      = metrics.Default.Counter("mural_plan_cache_hits_total")
	mPlanCacheMisses    = metrics.Default.Counter("mural_plan_cache_misses_total")
	mPlanCacheEvictions = metrics.Default.Counter("mural_plan_cache_evictions_total")
)

// planCacheEntries bounds the plan cache. Plans are small (a few nodes), so
// the bound mostly guards against unbounded distinct SQL texts (e.g.
// un-parameterized literals).
const planCacheEntries = 256

// planCacheKey identifies a cached plan: the exact SQL text, the planner
// settings (settings.planKey) and the catalog version it was planned under;
// DDL and ANALYZE bump the version, so stale plans stop matching (the purge
// just reclaims their memory). fbgen is the selectivity-feedback generation:
// it moves only when newly observed selectivities could change a plan, so
// warm feedback re-plans exactly the statements it could improve.
type planCacheKey struct {
	sql     string
	opts    string
	version uint64
	fbgen   uint64
}

// planCache is the engine-lifetime SELECT plan cache. Cached *plan.Node
// trees are shared across concurrent executions; the executor treats plans
// as read-only, which is what makes that safe.
type planCache struct {
	mu                      sync.Mutex
	m                       map[planCacheKey]*plan.Node
	cap                     int
	hits, misses, evictions uint64
}

func newPlanCache() *planCache {
	return &planCache{m: make(map[planCacheKey]*plan.Node), cap: planCacheEntries}
}

func (c *planCache) get(key planCacheKey) (*plan.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.m[key]
	if ok {
		c.hits++
		mPlanCacheHits.Inc()
	} else {
		c.misses++
		mPlanCacheMisses.Inc()
	}
	return n, ok
}

func (c *planCache) put(key planCacheKey, n *plan.Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	if len(c.m) >= c.cap {
		// Random replacement: O(1), no recency bookkeeping on the hit path.
		for k := range c.m {
			delete(c.m, k)
			c.evictions++
			mPlanCacheEvictions.Inc()
			break
		}
	}
	c.m[key] = n
}

// purge drops every entry, keeping the counters (DDL invalidation).
func (c *planCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[planCacheKey]*plan.Node)
}

func (c *planCache) snapshot() CacheCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheCounters{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: len(c.m)}
}

// CacheCounters snapshots one engine-lifetime cache.
type CacheCounters struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// CacheStats reports the engine's shared caches: the G2P conversion cache
// and the SELECT plan cache. Closure is always zero: Ω keeps no cache (a
// statement compiles its constant operand against the taxonomy's interval
// labels), and the field stays for callers that read it.
type CacheStats struct {
	G2P     CacheCounters
	Plan    CacheCounters
	Closure CacheCounters
}

// CacheStats snapshots every engine-lifetime cache.
func (e *Engine) CacheStats() CacheStats {
	s := e.g2p.Stats()
	return CacheStats{
		G2P:  CacheCounters{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Entries: s.Entries},
		Plan: e.plans.snapshot(),
	}
}

// ddlDone passes a DDL result through and, when the statement succeeded,
// purges everything that described the old schema or data: the plan cache
// (its keys carry the catalog version, so it would age out on its own;
// purging reclaims the memory), the G2P cache, and the selectivity
// feedback — DDL and ANALYZE change the distribution the observations
// described.
func (e *Engine) ddlDone(r *Result, err error) (*Result, error) {
	if err != nil {
		return r, err
	}
	e.plans.purge()
	e.g2p.Purge()
	if e.fb != nil {
		e.fb.Purge()
	}
	return r, nil
}

// feedbackGen reads the feedback sketch's plan-invalidation counter (0 when
// feedback is disabled, keeping cache keys stable).
func (e *Engine) feedbackGen() uint64 {
	if e.fb == nil {
		return 0
	}
	return e.fb.Generation()
}

// cacheTotals sums hit/miss counters across every shared cache; observe
// subtracts two snapshots for the per-statement deltas reported by SHOW
// STATEMENTS and the slow-query log.
type cacheTotals struct{ hits, misses int64 }

// cacheBase snapshots the totals before a statement runs, or the zero value
// when statement statistics are disabled (skipping the snapshot cost).
func (e *Engine) cacheBase() cacheTotals {
	if e.stmts == nil {
		return cacheTotals{}
	}
	cs := e.CacheStats()
	return cacheTotals{
		hits:   int64(cs.G2P.Hits + cs.Plan.Hits),
		misses: int64(cs.G2P.Misses + cs.Plan.Misses),
	}
}
