package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/mural-db/mural/internal/leakcheck"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

// rowSet renders tuples order-insensitively: Gather merges worker streams in
// arrival order, so result sets are compared as sorted multisets.
func rowSet(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%v", r)
	}
	sort.Strings(out)
	return out
}

func eqRowSets(t *testing.T, got, want []types.Tuple) {
	t.Helper()
	g, w := rowSet(got), rowSet(want)
	if len(g) != len(w) {
		t.Fatalf("row count = %d, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row[%d] = %s, want %s", i, g[i], w[i])
		}
	}
}

// checkNoGoroutineLeak runs fn under the shared leak assertion: no Gather
// worker started inside fn may survive past the end of the test.
func checkNoGoroutineLeak(t *testing.T, fn func()) {
	t.Helper()
	leakcheck.Check(t)
	fn()
}

// intTable populates table name with n single-column integer rows.
func mkIntTable(env *mockEnv, name string, n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.NewInt(int64(i))}
	}
	env.tables[name] = rows
	return rows
}

func gatherOverScan(table string, workers int, parallel bool) *plan.Node {
	cols := []plan.ColInfo{{Rel: table, Name: "v", Kind: types.KindInt}}
	scan := scanNode(table, cols)
	scan.Parallel = parallel
	return &plan.Node{
		Op:       plan.OpGather,
		Children: []*plan.Node{scan},
		Cols:     cols,
		Workers:  workers,
	}
}

// A Gather over a table large enough for page-granularity morsels must
// return exactly the serial scan's rows.
func TestGatherMorselScanMatchesSerial(t *testing.T) {
	env := newMockEnv()
	// 100 rows / mockPageRows = 50 pages >= workers*minMorselPages = 8:
	// the morsel path, not the striped fallback.
	want := mkIntTable(env, "big", 100)
	checkNoGoroutineLeak(t, func() {
		got := runAll(t, env, gatherOverScan("big", 2, true))
		eqRowSets(t, got, want)
	})
}

// A table with fewer pages than workers*minMorselPages takes the striped
// fallback, which must still deliver every row exactly once.
func TestGatherStripedScanMatchesSerial(t *testing.T) {
	env := newMockEnv()
	// 7 rows = 4 pages < workers*minMorselPages = 16: striped.
	want := mkIntTable(env, "small", 7)
	checkNoGoroutineLeak(t, func() {
		got := runAll(t, env, gatherOverScan("small", 4, true))
		eqRowSets(t, got, want)
	})
}

// A worker count exceeding the row count must not duplicate or drop rows.
func TestGatherMoreWorkersThanRows(t *testing.T) {
	env := newMockEnv()
	want := mkIntTable(env, "tiny", 3)
	got := runAll(t, env, gatherOverScan("tiny", 8, true))
	eqRowSets(t, got, want)
}

// A Ψ filter under a Gather must match the serial result, and the workers'
// private RunStats must fold into the cursor's.
func TestGatherPsiFilterMergesRunStats(t *testing.T) {
	env := newMockEnv()
	names := []string{"akash", "akaash", "vikram", "aakash", "priya", "akash"}
	var rows []types.Tuple
	for i := 0; i < 60; i++ {
		rows = append(rows, types.Tuple{u(names[i%len(names)], types.LangEnglish)})
	}
	env.tables["t"] = rows
	cols := []plan.ColInfo{{Rel: "t", Name: "n", Kind: types.KindUniText}}
	filter := func(parallel bool) *plan.Node {
		scan := scanNode("t", cols)
		scan.Parallel = parallel
		return &plan.Node{
			Op:       plan.OpFilter,
			Children: []*plan.Node{scan},
			Cols:     cols,
			Cond: &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.Const{Val: types.NewText("akash")},
				Threshold: 1},
		}
	}
	want := runAll(t, env, filter(false))
	if len(want) == 0 {
		t.Fatal("serial Ψ filter matched nothing; test data is wrong")
	}

	gather := &plan.Node{
		Op:       plan.OpGather,
		Children: []*plan.Node{filter(true)},
		Cols:     cols,
		Workers:  4,
	}
	cur, err := Run(env, gather, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	eqRowSets(t, got, want)
	// Every row crossed the Ψ predicate exactly once, spread over workers.
	if cur.Stats.PsiEvaluations != int64(len(rows)) {
		t.Errorf("merged PsiEvaluations = %d, want %d", cur.Stats.PsiEvaluations, len(rows))
	}
	if cur.Stats.RowsOut != int64(len(want)) {
		t.Errorf("RowsOut = %d, want %d", cur.Stats.RowsOut, len(want))
	}
}

// Under EXPLAIN ANALYZE each worker collects into a private ExecStats; the
// merged view must report the child scan with loops == workers (PostgreSQL's
// parallel convention) and the summed row count.
func TestGatherMergesExecStats(t *testing.T) {
	env := newMockEnv()
	const n, workers = 40, 2
	mkIntTable(env, "t", n)
	gather := gatherOverScan("t", workers, true)
	scan := gather.Children[0]

	es := NewExecStats()
	cur, err := Run(env, gather, es, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("rows = %d, want %d", len(rows), n)
	}
	ga, ok := es.Actual(gather)
	if !ok {
		t.Fatal("no stats bucket for the Gather node")
	}
	if ga.Rows != n || ga.Loops != 1 {
		t.Errorf("Gather actual = %+v, want Rows=%d Loops=1", ga, n)
	}
	sa, ok := es.Actual(scan)
	if !ok {
		t.Fatal("no merged stats bucket for the parallel scan")
	}
	if sa.Rows != n {
		t.Errorf("scan Rows = %d, want %d (summed across workers)", sa.Rows, n)
	}
	if sa.Loops != workers {
		t.Errorf("scan Loops = %d, want %d (one per worker)", sa.Loops, workers)
	}
}

// Closing the cursor mid-drain must stop the workers and leak nothing, even
// while they are blocked shipping batches.
func TestGatherEarlyCloseStopsWorkers(t *testing.T) {
	env := newMockEnv()
	mkIntTable(env, "big", 4096)
	checkNoGoroutineLeak(t, func() {
		cur, err := Run(env, gatherOverScan("big", 4, true), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, ok, err := cur.Next(); err != nil || !ok {
				t.Fatalf("Next #%d = ok=%v err=%v", i, ok, err)
			}
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("early Close: %v", err)
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	})
}

// gatherOverChargedScan puts a Gather over chargedScan's index scan: every
// worker holds charged rows from build time on.
func gatherOverChargedScan(workers int) (*mockEnv, *plan.Node) {
	env, scan := chargedScan()
	return env, &plan.Node{Op: plan.OpGather, Children: []*plan.Node{scan}, Cols: scan.Cols, Workers: workers}
}

// Close before the first Next must release the worker pipelines without ever
// starting a goroutine.
func TestGatherCloseBeforeNext(t *testing.T) {
	env, gather := gatherOverChargedScan(3)
	res := NewResources(context.Background(), 0)
	checkNoGoroutineLeak(t, func() {
		cur, err := Run(env, gather, nil, res)
		if err != nil {
			t.Fatal(err)
		}
		if res.MemBytes() == 0 {
			t.Fatal("built workers hold no charged rows; the test observes nothing")
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if b := res.MemBytes(); b != 0 {
		t.Errorf("worker pipelines never closed: %d bytes still accounted", b)
	}
}

// errScanEnv makes every table scan fail after a few records.
type errScanEnv struct {
	*mockEnv
	failErr error
}

type errAfterScan struct {
	RecordScan
	n       int
	failErr error
}

func (e *errScanEnv) ScanRecords(table string, lo, hi int64) (RecordScan, error) {
	rs, err := e.mockEnv.ScanRecords(table, lo, hi)
	return &errAfterScan{RecordScan: rs, n: 2, failErr: e.failErr}, err
}

func (s *errAfterScan) NextPage(fn func(pg storage.Page) error) (bool, error) {
	return perRecord(s.RecordScan, fn, func(serve func() error) error {
		if s.n <= 0 {
			return s.failErr
		}
		s.n--
		return serve()
	})
}

// A worker's Next error must surface from the Gather exactly once, stay
// sticky, leave Close clean, and leak no goroutines.
func TestGatherWorkerErrorPropagates(t *testing.T) {
	scanErr := errors.New("disk on fire")
	env := &errScanEnv{mockEnv: newMockEnv(), failErr: scanErr}
	mkIntTable(env.mockEnv, "t", 64)
	checkNoGoroutineLeak(t, func() {
		cur, err := Run(env, gatherOverScan("t", 4, true), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var sawErr error
		for {
			_, ok, err := cur.Next()
			if err != nil {
				sawErr = err
				break
			}
			if !ok {
				break
			}
		}
		// Once: every worker that failed before it saw the stop met the
		// same error, and the Gather reports only the first of them.
		if !errors.Is(sawErr, scanErr) || sawErr.Error() != scanErr.Error() {
			t.Fatalf("Next error = %q, want %q", sawErr, scanErr)
		}
		// The error is sticky on further Nexts…
		if _, _, err := cur.Next(); !errors.Is(err, scanErr) {
			t.Errorf("second Next = %v, want the same error", err)
		}
		// …and Close does not report it a second time.
		if err := cur.Close(); err != nil {
			t.Errorf("Close after surfaced error = %v, want nil", err)
		}
	})
}

// failNthProbeEnv fails the k-th M-Tree probe.
type failNthProbeEnv struct {
	*mockEnv
	calls  int
	failOn int
}

func (e *failNthProbeEnv) MetricSearch(index, phoneme string, threshold int) ([]storage.RID, int, error) {
	if e.calls++; e.calls == e.failOn {
		return nil, 0, fmt.Errorf("probe %d refused", e.calls)
	}
	return e.mockEnv.MetricSearch(index, phoneme, threshold)
}

// When a later worker's pipeline fails to build, the Gather builder must
// close every root built before it.
func TestGatherBuilderClosesEarlierWorkersOnError(t *testing.T) {
	env, gather := gatherOverChargedScan(4)
	res := NewResources(context.Background(), 0)
	if _, err := Run(&failNthProbeEnv{mockEnv: env, failOn: 3}, gather, nil, res); err == nil {
		t.Fatal("expected build error from the refused probe")
	}
	if res.PeakBytes() == 0 {
		t.Fatal("no worker charged its rows before the failure; the test observes nothing")
	}
	if b := res.MemBytes(); b != 0 {
		t.Errorf("earlier workers' roots leaked when worker 2 failed to build: %d bytes still accounted", b)
	}
}

// Gather inside Gather is rejected at build time.
func TestNestedGatherRejected(t *testing.T) {
	env := newMockEnv()
	mkIntTable(env, "t", 4)
	inner := gatherOverScan("t", 2, true)
	outer := &plan.Node{
		Op:       plan.OpGather,
		Children: []*plan.Node{inner},
		Cols:     inner.Cols,
		Workers:  2,
	}
	if _, err := Run(env, outer, nil, nil); err == nil {
		t.Fatal("nested Gather must fail to build")
	}
}

// A scan node marked Parallel but built outside any Gather must fall back to
// an ordinary full scan (the planner only marks scans under a Gather, but
// the executor must not depend on that).
func TestParallelScanOutsideGatherIsSerial(t *testing.T) {
	env := newMockEnv()
	want := mkIntTable(env, "t", 10)
	cols := []plan.ColInfo{{Rel: "t", Name: "v", Kind: types.KindInt}}
	scan := scanNode("t", cols)
	scan.Parallel = true
	got := runAll(t, env, scan)
	eqRowSets(t, got, want)
}

// Two parallel scans of the same table node share one morsel source; a
// morselSource must hand out each page range exactly once per pass.
func TestMorselSourceClaimsAreDisjoint(t *testing.T) {
	src := &morselSource{table: "t", npages: 10, chunk: minMorselPages}
	type rng struct{ lo, hi int64 }
	want := []rng{{0, 4}, {4, 8}, {8, 10}}
	for pass := int64(0); pass < 2; pass++ {
		var got []rng
		for {
			lo, hi, ok := src.claim(pass)
			if !ok {
				break
			}
			got = append(got, rng{lo, hi})
		}
		if !slices.Equal(got, want) {
			t.Fatalf("pass %d claims = %v, want %v", pass, got, want)
		}
		// An exhausted pass stays exhausted.
		if _, _, ok := src.claim(pass); ok {
			t.Errorf("claim succeeded on exhausted pass %d", pass)
		}
	}

	// A Gather's shared source claims an eighth of a worker's share of the
	// table, between minMorselPages and one pinned run (storage.RunPages):
	// in every pass its claims are disjoint and cover the table in order,
	// and each worker gets at least 8 of them unless the claims are already
	// as small as minMorselPages.
	for _, np := range []int64{10, 40, 300, 10000} {
		for _, workers := range []int{1, 2, 8} {
			env := newMockEnv()
			mkIntTable(env, "t", int(np)*mockPageRows)
			pc := &parallelCtx{workers: workers, shared: &gatherShared{sources: map[*plan.Node]*morselSource{}}}
			src, err := pc.morselsFor(env, scanNode("t", nil))
			if err != nil {
				t.Fatal(err)
			}
			if striped := np < int64(workers)*minMorselPages; src.striped != striped {
				t.Fatalf("%d pages, %d workers: striped = %v, want %v", np, workers, src.striped, striped)
			}
			if want := min(max(np/int64(8*workers), minMorselPages), storage.RunPages); src.chunk != want {
				t.Fatalf("%d pages, %d workers: claims of %d pages, want %d", np, workers, src.chunk, want)
			}
			for pass := int64(0); pass < 2; pass++ {
				var next, claims int64
				for {
					lo, hi, ok := src.claim(pass)
					if !ok {
						break
					}
					if lo != next || hi <= lo || hi-lo > src.chunk {
						t.Fatalf("%d pages, %d workers, pass %d: claim [%d, %d) after [0, %d)", np, workers, pass, lo, hi, next)
					}
					next, claims = hi, claims+1
				}
				if next != np {
					t.Fatalf("%d pages, %d workers, pass %d: claims cover [0, %d)", np, workers, pass, next)
				}
				if claims < int64(8*workers) && src.chunk != minMorselPages {
					t.Fatalf("%d pages, %d workers: %d claims of %d pages, fewer than 8 a worker", np, workers, claims, src.chunk)
				}
			}
		}
	}

	// The striping threshold is minMorselPages a worker, whatever the claim
	// size: one page short of it stripes, at it the workers claim pages.
	for _, workers := range []int{2, 8} {
		for _, np := range []int64{int64(workers)*minMorselPages - 1, int64(workers) * minMorselPages} {
			env := newMockEnv()
			mkIntTable(env, "t", int(np)*mockPageRows)
			pc := &parallelCtx{workers: workers, shared: &gatherShared{sources: map[*plan.Node]*morselSource{}}}
			src, err := pc.morselsFor(env, scanNode("t", nil))
			if err != nil {
				t.Fatal(err)
			}
			if want := np < int64(workers)*minMorselPages; src.striped != want {
				t.Fatalf("%d pages, %d workers: striped = %v, want %v", np, workers, src.striped, want)
			}
		}
	}
}
