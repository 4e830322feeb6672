package mural

import (
	"fmt"
	"strings"
	"sync"
	"testing"
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

// A statement converts its Ψ constant once, however many Gather workers
// evaluate the predicate, in the fused kernel (the bare Ψ) and in the generic
// filter (the conjunction keeps it off the kernel) alike: one G2P cache
// lookup per statement — a miss the first time the constant is seen, a hit
// after — and none per row, since every stored name carries its phoneme.
func TestPsiSelectionMemoizesProbeConversions(t *testing.T) {
	e, err := Open(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n = 200
	loadNames(t, e, n)

	generic := psiNamesQuery + ` AND id >= 0`
	for i, q := range []string{generic, psiNamesQuery, generic, psiNamesQuery} {
		if ex := e.MustExec(`EXPLAIN ` + q); !strings.Contains(ex.Plan, "Gather workers=2") {
			t.Fatalf("%s: no two-worker Gather:\n%s", q, ex.Plan)
		}
		before := e.CacheStats().G2P
		res := e.MustExec(q)
		after := e.CacheStats().G2P
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		if first := i == 0; hits+misses != 1 || (misses == 1) != first {
			t.Errorf("%s (run %d): %d G2P cache hits and %d misses, want one lookup of the constant, a miss only on the first run",
				q, i, hits, misses)
		}
		if res.Stats.PsiEvaluations != n {
			t.Errorf("%s: evaluated %d rows, want %d", q, res.Stats.PsiEvaluations, n)
		}
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

// A table that was never ANALYZEd is sized for the exchange gate by its heap,
// not by the planner's 1,000-row default: six rows stay serial.
func TestUnanalyzedTinyTableStaysSerial(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`SET workers = 2`)
	e.MustExec(`CREATE TABLE names (id INT, name UNITEXT)`)
	for i, name := range []string{"akash", "akaash", "aakash", "vikram", "priya", "nehru"} {
		e.MustExec(fmt.Sprintf(`INSERT INTO names VALUES (%d, unitext('%s', english))`, i, name))
	}
	if ex := e.MustExec(`EXPLAIN ` + psiNamesQuery); strings.Contains(ex.Plan, "Gather") {
		t.Errorf("six un-ANALYZEd rows under a Gather:\n%s", ex.Plan)
	}
}
