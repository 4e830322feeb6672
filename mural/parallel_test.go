package mural

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/mural-db/mural/internal/metrics"
)

// loadNames creates a names table with n rows cycling through a fixed set of
// Latin-script names (a miniature of the paper's OND dataset) and ANALYZEs
// it so the planner sees the real cardinality.
func loadNames(t testing.TB, e *Engine, n int) {
	t.Helper()
	e.MustExec(`CREATE TABLE names (id INT, name UNITEXT)`)
	pool := []string{"akash", "akaash", "aakash", "vikram", "priya", "nehru", "gandhi", "tagore"}
	var rows []string
	for i := 0; i < n; i++ {
		rows = append(rows, fmt.Sprintf("(%d, unitext('%s', english))", i, pool[i%len(pool)]))
		if len(rows) == 100 || i == n-1 {
			e.MustExec(`INSERT INTO names VALUES ` + strings.Join(rows, ", "))
			rows = rows[:0]
		}
	}
	e.MustExec(`ANALYZE names`)
}

const psiNamesQuery = `SELECT id FROM names WHERE name LEXEQUAL 'akash' THRESHOLD 1 IN english`

// A parallel engine must plan a Gather over an eligible Ψ selection and
// return exactly the serial result set.
func TestParallelPsiSelectionMatchesSerial(t *testing.T) {
	e, err := Open(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	loadNames(t, e, 200)

	ex := e.MustExec(`EXPLAIN ` + psiNamesQuery)
	if !strings.Contains(ex.Plan, "Gather workers=") {
		t.Fatalf("no Gather in parallel plan:\n%s", ex.Plan)
	}
	if !strings.Contains(ex.Plan, "[parallel]") {
		t.Fatalf("driving scan not marked parallel:\n%s", ex.Plan)
	}

	par := e.MustExec(psiNamesQuery)

	e.MustExec(`SET workers = 1`)
	ex = e.MustExec(`EXPLAIN ` + psiNamesQuery)
	if strings.Contains(ex.Plan, "Gather") {
		t.Fatalf("SET workers = 1 did not disable parallelism:\n%s", ex.Plan)
	}
	ser := e.MustExec(psiNamesQuery)

	if len(par.Rows) == 0 || len(par.Rows) != len(ser.Rows) {
		t.Fatalf("parallel rows = %d, serial rows = %d", len(par.Rows), len(ser.Rows))
	}
	seen := map[int64]bool{}
	for _, r := range ser.Rows {
		seen[r[0].Int()] = true
	}
	for _, r := range par.Rows {
		if !seen[r[0].Int()] {
			t.Fatalf("parallel result has id %d the serial result lacks", r[0].Int())
		}
	}
}

// SET workers overrides the engine-level worker count in both directions.
func TestSetWorkersOverridesConfig(t *testing.T) {
	e := memEngine(t) // Workers unset: GOMAXPROCS, possibly 1 on small CI boxes
	loadNames(t, e, 200)
	e.MustExec(`SET workers = 4`)
	ex := e.MustExec(`EXPLAIN ` + psiNamesQuery)
	if !strings.Contains(ex.Plan, "Gather workers=4") {
		t.Fatalf("SET workers = 4 not honored:\n%s", ex.Plan)
	}
	res := e.MustExec(psiNamesQuery)
	if len(res.Rows) == 0 {
		t.Fatal("parallel Ψ selection matched nothing")
	}
}

// EXPLAIN ANALYZE on a parallel plan reports the Gather's merged output and
// the per-worker figures of the partitioned scan (loops = workers).
func TestExplainAnalyzeGather(t *testing.T) {
	e, err := Open(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n = 200
	loadNames(t, e, n)

	res := e.MustExec(`EXPLAIN ANALYZE ` + psiNamesQuery)
	gather := planLine(res.Plan, "Gather")
	if gather == "" {
		t.Fatalf("no Gather in plan:\n%s", res.Plan)
	}
	grows, gloops := actualOf(t, gather)
	if grows == 0 || gloops != 1 {
		t.Errorf("Gather actual rows=%d loops=%d, want >0 rows and 1 loop:\n%s",
			grows, gloops, res.Plan)
	}
	scan := planLine(res.Plan, "SeqScan")
	if scan == "" {
		t.Fatalf("no SeqScan in plan:\n%s", res.Plan)
	}
	srows, sloops := actualOf(t, scan)
	if srows != n {
		t.Errorf("parallel scan merged rows = %d, want %d (summed over workers):\n%s",
			srows, n, res.Plan)
	}
	if sloops < 2 {
		t.Errorf("parallel scan loops = %d, want one per worker (>= 2):\n%s",
			sloops, res.Plan)
	}
	if res.Stats.PsiEvaluations != n {
		t.Errorf("merged PsiEvaluations = %d, want %d", res.Stats.PsiEvaluations, n)
	}
}

// The per-query G2P memo must convert a repeated probe constant once per
// worker, not once per row: conversions stay flat while cache hits scale
// with the row count. The conjunction keeps the predicate on the generic
// filter — a bare Ψ over a scan compiles its probe once into the fused
// kernel and never consults the memo per row.
func TestPsiSelectionMemoizesProbeConversions(t *testing.T) {
	e, err := Open(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n = 200
	loadNames(t, e, n)

	counter := func(s metrics.Snapshot, name string) int64 { return s.Counters[name] }
	before := metrics.Default.Snapshot()
	e.MustExec(psiNamesQuery + ` AND id >= 0`)
	after := metrics.Default.Snapshot()

	conv := counter(after, "mural_g2p_conversions_total") - counter(before, "mural_g2p_conversions_total")
	hits := counter(after, "mural_g2p_cache_hits_total") - counter(before, "mural_g2p_cache_hits_total")
	misses := counter(after, "mural_g2p_cache_misses_total") - counter(before, "mural_g2p_cache_misses_total")

	// The probe constant converts at most once per worker (plus a couple of
	// planner-side conversions for selectivity estimation); without the memo
	// this would be ~n conversions.
	if conv > 10 {
		t.Errorf("g2p conversions during the query = %d, want <= 10 (memo defeated)", conv)
	}
	if misses > 10 {
		t.Errorf("memo misses = %d, want <= 10", misses)
	}
	// Every row re-uses either the materialized column phoneme or the
	// memoized probe phoneme.
	if hits < n {
		t.Errorf("cache hits = %d, want >= %d", hits, n)
	}

	// The bare Ψ over the (striped) parallel scan is the fused kernel: each
	// worker converts the probe once when it compiles its matcher, and no row
	// goes near the memo — while every row is still evaluated.
	before = metrics.Default.Snapshot()
	res := e.MustExec(psiNamesQuery)
	after = metrics.Default.Snapshot()
	conv = counter(after, "mural_g2p_conversions_total") - counter(before, "mural_g2p_conversions_total")
	lookups := counter(after, "mural_g2p_cache_hits_total") - counter(before, "mural_g2p_cache_hits_total") +
		counter(after, "mural_g2p_cache_misses_total") - counter(before, "mural_g2p_cache_misses_total")
	if conv > 10 || lookups > 10 {
		t.Errorf("fused Ψ scan: %d conversions, %d memo lookups, want a few per worker, none per row", conv, lookups)
	}
	if res.Stats.PsiEvaluations != n {
		t.Errorf("fused Ψ scan evaluated %d rows, want %d", res.Stats.PsiEvaluations, n)
	}
}

// Parallel read queries must coexist with concurrent writers: workers only
// read, so they serialize with insert batches at the buffer pool.
func TestParallelQueryDuringInserts(t *testing.T) {
	e, err := Open(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	loadNames(t, e, 200)
	e.MustExec(`CREATE TABLE scratch (id INT, name UNITEXT)`)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := e.Exec(fmt.Sprintf(
				`INSERT INTO scratch VALUES (%d, unitext('akash', english))`, i)); err != nil {
				t.Errorf("concurrent insert: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		res, err := e.Exec(psiNamesQuery)
		if err != nil {
			t.Fatalf("parallel query during inserts: %v", err)
		}
		if len(res.Rows) == 0 {
			t.Fatal("parallel query matched nothing")
		}
	}
	wg.Wait()
}
