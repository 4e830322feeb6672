package mural

import (
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/wordnet"
)

// Repeated identical SELECTs must reuse the cached plan; the second run is
// a plan-cache hit, visible in CacheStats.
func TestPlanCacheHitsOnRepeatedQuery(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)

	const q = `SELECT id, title FROM book WHERE price < 10 ORDER BY id`
	first := e.MustExec(q)
	base := e.CacheStats().Plan
	second := e.MustExec(q)
	after := e.CacheStats().Plan

	if after.Hits != base.Hits+1 {
		t.Errorf("plan cache hits %d -> %d, want +1 for an identical re-plan", base.Hits, after.Hits)
	}
	if len(first.Rows) != len(second.Rows) {
		t.Errorf("cached plan returned %d rows, first run %d", len(second.Rows), len(first.Rows))
	}
	if after.Entries == 0 {
		t.Error("plan cache holds no entries after a SELECT")
	}
}

// Distinct queries sharing converted strings must reuse each other's G2P
// work through the engine-lifetime shared cache.
func TestSharedG2PCacheAcrossQueries(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)

	e.MustExec(`SELECT id FROM book WHERE author LEXEQUAL 'Nehru' THRESHOLD 2 IN english`)
	mid := e.CacheStats().G2P
	if mid.Misses == 0 {
		t.Fatal("first phonetic query did not populate the shared G2P cache")
	}
	// A different statement converting the same string: stored rows carry
	// materialized phonemes, so the literal's conversion is the shareable
	// work — and this query finds it already cached.
	e.MustExec(`SELECT count(*) FROM book WHERE author LEXEQUAL 'Nehru' THRESHOLD 2 IN english`)
	after := e.CacheStats().G2P
	if after.Hits <= mid.Hits {
		t.Errorf("shared G2P hits %d -> %d, want growth from cross-query reuse", mid.Hits, after.Hits)
	}
}

// DDL must invalidate every shared cache: stale plans must not survive a
// schema change, and cached conversions/closures are dropped with them.
func TestDDLInvalidatesSharedCaches(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)

	const q = `SELECT id FROM book WHERE author LEXEQUAL 'Nehru' THRESHOLD 2 IN english`
	e.MustExec(q)
	e.MustExec(q)
	s := e.CacheStats()
	if s.Plan.Entries == 0 || s.G2P.Entries == 0 {
		t.Fatalf("caches not populated before DDL: %+v", s)
	}

	e.MustExec(`CREATE INDEX bt ON book (id) USING BTREE`)
	s = e.CacheStats()
	if s.Plan.Entries != 0 {
		t.Errorf("plan cache holds %d entries after CREATE INDEX, want 0", s.Plan.Entries)
	}
	if s.G2P.Entries != 0 {
		t.Errorf("shared G2P cache holds %d entries after CREATE INDEX, want 0", s.G2P.Entries)
	}

	// The re-planned query must pick up the new catalog version (a miss, not
	// a stale hit) and still run correctly.
	base := e.CacheStats().Plan
	res := e.MustExec(q)
	if len(res.Rows) == 0 {
		t.Error("query returned nothing after DDL invalidation")
	}
	after := e.CacheStats().Plan
	if after.Misses != base.Misses+1 {
		t.Errorf("plan misses %d -> %d, want +1 (stale plan must not be served)", base.Misses, after.Misses)
	}

	e.MustExec(`DROP TABLE book`)
	s = e.CacheStats()
	if s.Plan.Entries != 0 || s.G2P.Entries != 0 {
		t.Errorf("caches survive DROP TABLE: %+v", s)
	}
}

// EXPLAIN ANALYZE surfaces the engine-lifetime cache counters.
func TestExplainAnalyzeShowsCacheCounters(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	e.MustExec(`SELECT id FROM book WHERE price < 10`)
	res := e.MustExec(`EXPLAIN ANALYZE SELECT id FROM book WHERE price < 10`)
	if res.Plan == "" {
		t.Fatal("EXPLAIN ANALYZE returned no plan text")
	}
	if !strings.Contains(res.Plan, "Caches:") {
		t.Errorf("EXPLAIN ANALYZE omits cache counters:\n%s", res.Plan)
	}
}

// SET changes what the planner may choose for one session and purges
// nothing: conversions and plans stay, the catalog version does not move, a
// plan made under other settings is not served, and switching back finds the
// first plan again.
func TestSetKeepsCaches(t *testing.T) {
	e, err := Open(Config{WordNet: wordnet.Generate(wordnet.Config{Synsets: 2000, Seed: 1})})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE doc (id INT, name UNITEXT, cat UNITEXT)`)
	e.MustExec(`INSERT INTO doc VALUES (1, unitext('Nehru', english), unitext('history', english))`)
	const q = `SELECT id FROM doc WHERE name LEXEQUAL 'Nehru' THRESHOLD 2 IN english`
	e.MustExec(q)
	e.MustExec(`SELECT id FROM doc WHERE cat SEMEQUAL 'history'`)
	before, version := e.CacheStats(), e.Catalog().Version()
	if before.Plan.Entries == 0 || before.G2P.Entries == 0 {
		t.Fatalf("caches not populated before SET: %+v", before)
	}

	e.MustExec(`SET enable_mtree = off`)
	e.MustExec(q)
	if got := e.CacheStats().Plan; got.Misses != before.Plan.Misses+1 {
		t.Errorf("plan misses %d -> %d, want +1 (a plan made under other settings must not be served)", before.Plan.Misses, got.Misses)
	}
	e.MustExec(`SET enable_mtree = on`)
	e.MustExec(q)
	if got := e.CacheStats().Plan; got.Hits != before.Plan.Hits+1 {
		t.Errorf("plan hits %d -> %d, want +1 (switching back must find the first plan)", before.Plan.Hits, got.Hits)
	}

	mid := e.CacheStats()
	e.MustExec(`SET statement_timeout = 5000`)
	e.MustExec(`SET enable_hashjoin = off`)
	if after := e.CacheStats(); after.G2P.Entries != mid.G2P.Entries || after.Plan.Entries != mid.Plan.Entries {
		t.Errorf("SET purged a cache: %+v -> %+v", mid, after)
	}
	if v := e.Catalog().Version(); v != version {
		t.Errorf("SET moved the catalog version %d -> %d", version, v)
	}
}
