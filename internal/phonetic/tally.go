package phonetic

import "github.com/mural-db/mural/internal/metrics"

// G2P observability: conversions vs cache hits separates "the converter
// ran" from "the materialized phoneme string (§3.1) was reused"; the shared
// cache's counters show the run-time conversions an engine-lifetime cache
// saved, its evictions a workload with more distinct strings than it holds.
var (
	mG2PConversions     = metrics.Default.Counter("mural_g2p_conversions_total")
	mG2PCacheHits       = metrics.Default.Counter("mural_g2p_cache_hits_total")
	mG2PFallbacks       = metrics.Default.Counter("mural_g2p_fallbacks_total")
	mG2PSharedHits      = metrics.Default.Counter("mural_g2p_shared_cache_hits_total")
	mG2PSharedMisses    = metrics.Default.Counter("mural_g2p_shared_cache_misses_total")
	mG2PSharedEvictions = metrics.Default.Counter("mural_g2p_shared_cache_evictions_total")
)

// Tally counts G2P events in memory one goroutine owns: the counters above,
// and a SharedCache's own, are cache lines every goroutine shares, so a row
// loop must not write them. The executor publishes its evaluators' tallies
// per batch and at statement end, as it does its Ψ/Ω counts. The zero value
// is ready to use.
type Tally struct {
	conversions, hits, fallbacks              int64
	sharedHits, sharedMisses, sharedEvictions int64
	// shared is the cache the shared* events happened in.
	shared *SharedCache
}

// Publish adds the tally to the process-wide counters and to its shared
// cache's, and zeroes it. It is the one publication point of a Tally: its
// owner calls it per batch or per statement, never per row.
func (t *Tally) Publish() {
	if *t == (Tally{}) {
		return
	}
	mG2PConversions.Add(t.conversions)
	mG2PCacheHits.Add(t.hits)
	mG2PFallbacks.Add(t.fallbacks)
	mG2PSharedHits.Add(t.sharedHits)
	mG2PSharedMisses.Add(t.sharedMisses)
	mG2PSharedEvictions.Add(t.sharedEvictions)
	if c := t.shared; c != nil {
		c.hits.Add(uint64(t.sharedHits))
		c.misses.Add(uint64(t.sharedMisses))
		c.evictions.Add(uint64(t.sharedEvictions))
	}
	*t = Tally{}
}
