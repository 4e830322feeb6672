package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/mural-db/mural/internal/leakcheck"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// tupleStrings renders result rows for comparison; sorted, because Gather
// merges worker streams in arrival order.
func tupleStrings(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, t := range rows {
		out[i] = fmt.Sprint(t)
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, got, want []types.Tuple) {
	t.Helper()
	g, w := tupleStrings(got), tupleStrings(want)
	if fmt.Sprint(g) != fmt.Sprint(w) {
		t.Errorf("rows diverge: got %d rows, want %d", len(g), len(w))
	}
}

// oracleFilter is the reference answer of a filter over a table: decode every
// record the mock heap serves and apply the generic evaluator.
func oracleFilter(t *testing.T, env *mockEnv, table string, cond plan.Expr) (rows []types.Tuple, psiEvals int64) {
	t.Helper()
	ev := &evaluator{env: env, stats: &RunStats{}}
	for _, page := range env.pagesFor(table) {
		for _, rec := range page {
			tup, _, err := types.DecodeTuple(rec)
			if err != nil {
				t.Fatal(err)
			}
			pass, err := ev.evalBool(cond, tup)
			if err != nil {
				t.Fatal(err)
			}
			if pass {
				rows = append(rows, tup)
			}
		}
	}
	return rows, ev.stats.PsiEvaluations
}

var errInjected = errors.New("injected scan failure")

// flakyEnv fails every scan once failAfter records have been served.
type flakyEnv struct {
	*mockEnv
	failAfter int64
	served    atomic.Int64
}

type flakyScan struct {
	RecordScan
	env *flakyEnv
}

func (e *flakyEnv) ScanRecords(table string, lo, hi int64) (RecordScan, error) {
	rs, err := e.mockEnv.ScanRecords(table, lo, hi)
	if err != nil {
		return nil, err
	}
	return &flakyScan{RecordScan: rs, env: e}, nil
}

func (s *flakyScan) NextPage(fn func(pg storage.Page) error) (bool, error) {
	return perRecord(s.RecordScan, fn, func(serve func() error) error {
		if s.env.served.Add(1) > s.env.failAfter {
			return errInjected
		}
		return serve()
	})
}

// settled asserts a closed query holds nothing: every pooled batch is back in
// the pool and every accounted byte released.
func settled(t *testing.T, cur *Cursor, res *Resources) {
	t.Helper()
	if n := cur.ev.pool.InFlight(); n != 0 {
		t.Errorf("batches in flight after Close = %d, want 0", n)
	}
	if b := res.MemBytes(); b != 0 {
		t.Errorf("MemBytes after Close = %d, want 0", b)
	}
}

// everyExit runs the plan to each kind of end — full drain, early Close,
// scan error, cancellation — asserting after each that no goroutine, pooled
// batch or accounted byte is left behind. The drained rows go to check.
// failAfter is how many scanned records the error exit lets through (skipped
// when negative: a plan over empty inputs has no scan to fail).
func everyExit(t *testing.T, env *mockEnv, node *plan.Node, failAfter int64, check func(t *testing.T, rows []types.Tuple, cur *Cursor, es *ExecStats)) {
	t.Helper()
	start := func(t *testing.T, e Env, ctx context.Context) (*Cursor, *Resources, *ExecStats) {
		t.Helper()
		leakcheck.Check(t)
		res, es := NewResources(ctx, 0), NewCountStats()
		cur, err := Run(e, node, es, res)
		if err != nil {
			t.Fatal(err)
		}
		return cur, res, es
	}
	t.Run("drain", func(t *testing.T) {
		cur, res, es := start(t, env, context.Background())
		rows, err := cur.All()
		if err != nil {
			t.Fatal(err)
		}
		settled(t, cur, res)
		check(t, rows, cur, es)
	})
	t.Run("early-close", func(t *testing.T) {
		cur, res, _ := start(t, env, context.Background())
		if _, _, err := cur.Next(); err != nil {
			t.Fatal(err)
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("early Close: %v", err)
		}
		settled(t, cur, res)
	})
	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cur, res, _ := start(t, env, ctx)
		if _, _, err := cur.Next(); err != nil {
			t.Fatal(err)
		}
		cancel()
		for {
			_, ok, err := cur.Next()
			if err != nil && !errors.Is(err, ErrCanceled) {
				t.Fatalf("Next after cancel = %v, want ErrCanceled or a complete drain", err)
			}
			if err != nil || !ok {
				break
			}
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("Close after cancel: %v", err)
		}
		settled(t, cur, res)
	})
	if failAfter < 0 {
		return
	}
	t.Run("error", func(t *testing.T) {
		cur, res, _ := start(t, &flakyEnv{mockEnv: env, failAfter: failAfter}, context.Background())
		_, err := cur.All()
		if !errors.Is(err, errInjected) {
			t.Fatalf("drain over a failing scan = %v, want the injected error", err)
		}
		settled(t, cur, res)
	})
}

var sweepSizes = []int{0, 1, 5, 1023, 1024, 1025, 2500}

// A filtered scan must return exactly the oracle's rows, evaluation counts
// and operator statistics across batch-boundary shapes — empty, one row, one
// short of a batch, exactly one, one over, several — serial and under a
// Gather, for the fused kernel and for the generic filter it falls back to,
// with a projection rewriting every batch on top.
func TestFilteredScanMatchesOracleAcrossSizes(t *testing.T) {
	for _, n := range sweepSizes {
		for _, workers := range []int{0, 4} {
			for _, shape := range []string{"fused", "generic"} {
				t.Run(fmt.Sprintf("rows=%d/workers=%d/%s", n, workers, shape), func(t *testing.T) {
					env := newMockEnv()
					mkUniTable(env, "t", n)
					filter := psiFilterScan("t", workers > 0)
					if shape == "generic" {
						// A conjunction is not a fusible shape.
						filter.Cond = &plan.AndOr{L: filter.Cond, R: &plan.Const{Val: types.NewBool(true)}}
					}
					scan := filter.Children[0]
					node := filter
					if workers > 0 {
						node = &plan.Node{Op: plan.OpGather, Children: []*plan.Node{filter}, Cols: filter.Cols, Workers: workers}
					}
					// The shape every SELECT has: a projection on top.
					node = &plan.Node{Op: plan.OpProject, Children: []*plan.Node{node}, Cols: filter.Cols,
						Projs: []plan.Expr{&plan.ColIdx{Idx: 0, Kind: types.KindUniText}}}
					want, wantEvals := oracleFilter(t, env, "t", filter.Cond)
					failAfter := int64(n / 2)
					if n == 0 {
						failAfter = -1
					}
					everyExit(t, env, node, failAfter, func(t *testing.T, rows []types.Tuple, cur *Cursor, es *ExecStats) {
						sameRows(t, rows, want)
						if cur.Stats.PsiEvaluations != wantEvals {
							t.Errorf("PsiEvaluations = %d, want %d", cur.Stats.PsiEvaluations, wantEvals)
						}
						// One pipeline per worker.
						loops := int64(max(workers, 1))
						sa, _ := es.Actual(scan)
						fa, _ := es.Actual(filter)
						if sa.Rows != int64(n) || sa.Loops != loops {
							t.Errorf("scan actual = %+v, want rows=%d loops=%d", sa, n, loops)
						}
						if fa.Rows != int64(len(want)) || fa.Loops != loops {
							t.Errorf("filter actual = %+v, want rows=%d loops=%d", fa, len(want), loops)
						}
					})
				})
			}
		}
	}
}

// intRows builds n single-column rows valued i%mod.
func intRows(n, mod int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.NewInt(int64(i % mod))}
	}
	return rows
}

var intCol = []plan.ColInfo{{Name: "v", Kind: types.KindInt}}

// Join output that does not fit one batch must come out whole, in every join
// shape, and settle on every exit.
func TestJoinOutputStraddlesBatches(t *testing.T) {
	env := newMockEnv()
	env.tables["l"] = intRows(60, 6) // 10 rows per key
	env.tables["r"] = intRows(150, 6)
	var want []types.Tuple // the equi-join, by nested loops: 60 × 25 = 1500 rows
	for _, l := range env.tables["l"] {
		for _, r := range env.tables["r"] {
			if l[0].Int() == r[0].Int() {
				want = append(want, joinedTuple(l, r))
			}
		}
	}
	cols := append(append([]plan.ColInfo{}, intCol...), intCol...)
	eq := &plan.Cmp{Op: sql.OpEq, L: &plan.ColIdx{Idx: 0, Kind: types.KindInt}, R: &plan.ColIdx{Idx: 1, Kind: types.KindInt}}
	sides := func() []*plan.Node {
		return []*plan.Node{scanNode("l", intCol), scanNode("r", intCol)}
	}
	for name, node := range map[string]*plan.Node{
		"nl":   {Op: plan.OpNLJoin, Children: sides(), Cols: cols, Cond: eq},
		"hash": {Op: plan.OpHashJoin, Children: sides(), Cols: cols, HashLeft: 0, HashRight: 1},
	} {
		t.Run(name, func(t *testing.T) {
			// The inner side is read first: fail while the outer is mid-way.
			everyExit(t, env, node, 150+30, func(t *testing.T, rows []types.Tuple, _ *Cursor, es *ExecStats) {
				sameRows(t, rows, want)
				if a, _ := es.Actual(node); a.Rows != int64(len(want)) || a.Loops != 1 {
					t.Errorf("join actual = %+v, want rows=%d loops=1", a, len(want))
				}
			})
		})
	}
	// A hoisted Ψ join whose batches fill inside an inner TEXT record: 1,000
	// outer rows in one block match each of 3 inner records, so the second
	// and third records straddle a batch. Each record's phoneme is still
	// converted once.
	t.Run("psi-text-inner", func(t *testing.T) {
		env := newMockEnv()
		for i := 0; i < 1000; i++ {
			env.tables["o"] = append(env.tables["o"], types.Tuple{u("nehru", types.LangEnglish)})
		}
		for _, name := range []string{"nehru", "neru", "nehroo"} {
			env.tables["i"] = append(env.tables["i"], types.Tuple{types.NewText(name)})
		}
		var want []types.Tuple
		for _, o := range env.tables["o"] {
			for _, i := range env.tables["i"] {
				want = append(want, joinedTuple(o, i))
			}
		}
		oc := []plan.ColInfo{{Rel: "o", Name: "n", Kind: types.KindUniText}}
		ic := []plan.ColInfo{{Rel: "i", Name: "n", Kind: types.KindText}}
		node := &plan.Node{Op: plan.OpPsiJoin, Children: []*plan.Node{scanNode("o", oc), scanNode("i", ic)},
			Cols: append(append([]plan.ColInfo{}, oc...), ic...), Cond: &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.ColIdx{Idx: 1}, Threshold: 2}}
		everyExit(t, env, node, -1, func(t *testing.T, rows []types.Tuple, _ *Cursor, es *ExecStats) {
			sameRows(t, rows, want)
			if st := env.g2p.Stats(); st.Hits+st.Misses != 3 {
				t.Errorf("G2P lookups = %d, want 3 (one per inner record)", st.Hits+st.Misses)
			}
			if a, _ := es.Actual(node); a.Rows != int64(len(want)) || a.Loops != 1 {
				t.Errorf("join actual = %+v, want rows=%d loops=1", a, len(want))
			}
		})
	})
}

// LIMIT 1025 over 2500 rows cuts inside the second batch and stops pulling
// its child; the rows never asked for go back to the pool at Close.
func TestLimitCutsInsideABatch(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			env := newMockEnv()
			mkIntTable(env, "t", 2500)
			var child *plan.Node = scanNode("t", intCol)
			if workers > 0 {
				child = gatherOverScan("t", workers, true)
			}
			node := &plan.Node{Op: plan.OpLimit, Children: []*plan.Node{child}, Cols: intCol, LimitN: 1025}
			everyExit(t, env, node, 10, func(t *testing.T, rows []types.Tuple, _ *Cursor, es *ExecStats) {
				if len(rows) != 1025 {
					t.Fatalf("rows = %d, want 1025", len(rows))
				}
				seen := map[int64]bool{}
				for _, r := range rows {
					seen[r[0].Int()] = true
				}
				if len(seen) != 1025 {
					t.Errorf("distinct rows = %d, want 1025 (no row handed out twice)", len(seen))
				}
				if a, _ := es.Actual(node); a.Rows != 1025 {
					t.Errorf("limit actual = %+v, want rows=1025", a)
				}
			})
		})
	}
}

// A join under a LIMIT stops at the row the LIMIT stops at, as an executor
// pulling one row at a time would: a selective Ψ join evaluates no pair past
// its first match, a dense join builds no row it will not hand on. The budget
// reaches the join through Project and Filter.
func TestLimitStopsJoinAtItsBudget(t *testing.T) {
	const inner, match = 2000, 700
	env := newMockEnv()
	env.tables["l"] = []types.Tuple{{u("nehru", types.LangEnglish)}, {u("nehru", types.LangEnglish)}}
	for i := 0; i < inner; i++ {
		name := "krishnamurthy"
		if i == match {
			name = "neru"
		}
		env.tables["r"] = append(env.tables["r"], types.Tuple{u(name, types.LangEnglish)})
	}
	mkIntTable(env, "a", 50)
	mkIntTable(env, "b", 50)
	uni := func(rel string) []plan.ColInfo {
		return []plan.ColInfo{{Rel: rel, Name: "n", Kind: types.KindUniText}}
	}
	limitOver := func(join *plan.Node, n int64) *plan.Node {
		proj := &plan.Node{Op: plan.OpProject, Children: []*plan.Node{join}, Cols: join.Cols[:1],
			Projs: []plan.Expr{&plan.ColIdx{Idx: 0, Kind: join.Cols[0].Kind}}}
		return &plan.Node{Op: plan.OpLimit, Children: []*plan.Node{proj}, Cols: proj.Cols, LimitN: n}
	}
	run := func(t *testing.T, node *plan.Node) (*Cursor, *ExecStats, []types.Tuple) {
		es := NewCountStats()
		cur, err := Run(env, node, es, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := cur.All()
		if err != nil {
			t.Fatal(err)
		}
		return cur, es, rows
	}

	psi := &plan.Node{
		Op:       plan.OpPsiJoin,
		Children: []*plan.Node{scanNode("l", uni("l")), scanNode("r", uni("r"))},
		Cols:     append(uni("l"), uni("r")...),
		Cond:     &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.ColIdx{Idx: 1}, Threshold: 1},
	}
	// The join pairs each inner record with both outer rows in turn, and
	// stops inside record match, at its first pair.
	cur, _, rows := run(t, limitOver(psi, 1))
	if len(rows) != 1 || cur.Stats.PsiEvaluations != 2*match+1 {
		t.Errorf("LIMIT 1 over a Ψ join: %d rows, %d Ψ evaluations, want 1 and %d (first match, no further)",
			len(rows), cur.Stats.PsiEvaluations, 2*match+1)
	}

	cols := append(append([]plan.ColInfo{}, intCol...), intCol...)
	sides := func() []*plan.Node { return []*plan.Node{scanNode("a", intCol), scanNode("b", intCol)} }
	late := &plan.Cmp{Op: sql.OpGe, L: &plan.ColIdx{Idx: 1, Kind: types.KindInt}, R: &plan.Const{Val: types.NewInt(3)}}
	for name, join := range map[string]*plan.Node{
		"nl":   {Op: plan.OpNLJoin, Children: sides(), Cols: cols},
		"hash": {Op: plan.OpHashJoin, Children: sides(), Cols: cols, HashLeft: 0, HashRight: 1},
	} {
		t.Run(name, func(t *testing.T) {
			_, es, rows := run(t, limitOver(join, 1))
			if a, _ := es.Actual(join); len(rows) != 1 || a.Rows != 1 {
				t.Errorf("LIMIT 1 over a dense join: %d rows, join built %d, want 1 and 1", len(rows), a.Rows)
			}
			// A Filter between the two passes the budget on and drops the
			// join's first three rows: the join is pulled again for what is
			// still missing.
			filt := &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{join}, Cols: cols, Cond: late}
			_, es, rows = run(t, limitOver(filt, 3))
			if a, _ := es.Actual(join); len(rows) != 3 || a.Rows > 2*3 {
				t.Errorf("LIMIT 3 over a filtered join: %d rows, join built %d, want 3 and at most 6", len(rows), a.Rows)
			}
		})
	}
}

// Sort, Distinct and a grouped Aggregate over an empty input yield no rows
// and no batch; over a multi-batch input they yield what a loop over the
// table yields.
func TestBlockingOperatorsOverEmptyAndLargeInputs(t *testing.T) {
	unary := func(op plan.OpType) *plan.Node {
		n := &plan.Node{Op: op, Children: []*plan.Node{scanNode("t", intCol)}, Cols: intCol}
		switch op {
		case plan.OpSort:
			n.SortKeys, n.SortDesc = []plan.Expr{&plan.ColIdx{Idx: 0, Kind: types.KindInt}}, []bool{false}
		case plan.OpAggregate:
			n.GroupBy = []plan.Expr{&plan.ColIdx{Idx: 0, Kind: types.KindInt}}
			n.Aggs = []plan.AggSpec{{Kind: sql.FuncCount}}
			n.Projs = []plan.Expr{&plan.ColIdx{Idx: 0, Kind: types.KindInt}, nil}
			n.Cols = []plan.ColInfo{intCol[0], {Name: "count", Kind: types.KindInt}}
		}
		return n
	}
	for _, op := range []plan.OpType{plan.OpSort, plan.OpDistinct, plan.OpAggregate} {
		t.Run(op.String()+"/empty", func(t *testing.T) {
			env := newMockEnv()
			env.tables["t"] = nil
			everyExit(t, env, unary(op), -1, func(t *testing.T, rows []types.Tuple, _ *Cursor, _ *ExecStats) {
				if len(rows) != 0 {
					t.Errorf("rows over empty input = %v, want none", rows)
				}
			})
		})
		t.Run(op.String()+"/2500", func(t *testing.T) {
			env := newMockEnv()
			env.tables["t"] = intRows(2500, 1300) // 1300 distinct values, 1200 of them twice
			everyExit(t, env, unary(op), 2000, func(t *testing.T, rows []types.Tuple, _ *Cursor, _ *ExecStats) {
				switch op {
				case plan.OpSort:
					if len(rows) != 2500 || !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i][0].Int() < rows[j][0].Int() }) {
						t.Errorf("sort returned %d rows, sorted=false or short", len(rows))
					}
				case plan.OpDistinct:
					if len(rows) != 1300 {
						t.Errorf("distinct rows = %d, want 1300", len(rows))
					}
				case plan.OpAggregate:
					if len(rows) != 1300 {
						t.Fatalf("groups = %d, want 1300", len(rows))
					}
					for _, r := range rows {
						if want := int64(1 + (2500-1-int(r[0].Int()))/1300); r[1].Int() != want {
							t.Fatalf("count(%d) = %d, want %d", r[0].Int(), r[1].Int(), want)
						}
					}
				}
			})
		})
	}
}

// A Materialize rescanned by a nested-loops join once per outer row reports
// loops = outer rows, rows = every row it handed the join, and one exhausted
// pull per pass, while its own input runs once.
func TestMaterializeRescansReportLoops(t *testing.T) {
	const outer, inner = 3, 1500
	env := newMockEnv()
	mkIntTable(env, "a", outer)
	mkIntTable(env, "b", inner)
	mat := &plan.Node{Op: plan.OpMaterialize, Children: []*plan.Node{scanNode("b", intCol)}, Cols: intCol}
	node := &plan.Node{
		Op:       plan.OpNLJoin,
		Children: []*plan.Node{scanNode("a", intCol), mat},
		Cols:     append(append([]plan.ColInfo{}, intCol...), intCol...),
	}
	everyExit(t, env, node, inner+1, func(t *testing.T, rows []types.Tuple, _ *Cursor, es *ExecStats) {
		if len(rows) != outer*inner {
			t.Fatalf("cross product rows = %d, want %d", len(rows), outer*inner)
		}
		ma, _ := es.Actual(mat)
		if ma.Loops != outer || ma.Rows != outer*inner {
			t.Errorf("materialize actual = %+v, want loops=%d rows=%d", ma, outer, outer*inner)
		}
		if sa, _ := es.Actual(mat.Children[0]); sa.Rows != inner || sa.Loops != 1 {
			t.Errorf("inner scan actual = %+v, want rows=%d loops=1", sa, inner)
		}
	})
}

// gatherPsiPlan builds Gather over a parallel Ψ-filtered scan.
func gatherPsiPlan(workers int) *plan.Node {
	return &plan.Node{
		Op:       plan.OpGather,
		Children: []*plan.Node{psiFilterScan("t", true)},
		Cols:     []plan.ColInfo{{Rel: "t", Name: "n", Kind: types.KindUniText}},
		Workers:  workers,
	}
}

// With more surviving rows than the exchange channel and the workers' current
// batches can park, an early Close or a cancellation finds batches queued on
// the channel and one being consumed: all must return to the pool, and the
// batches' charge must have been accounted while they were out.
func TestGatherWindsDownWithBatchesQueued(t *testing.T) {
	env := newMockEnv()
	mkUniTable(env, "t", 20000)
	want, _ := oracleFilter(t, env, "t", psiFilterScan("t", false).Cond)
	everyExit(t, env, gatherPsiPlan(4), 10000, func(t *testing.T, rows []types.Tuple, _ *Cursor, _ *ExecStats) {
		sameRows(t, rows, want)
	})
	res := NewResources(context.Background(), 0)
	cur, err := Run(env, gatherPsiPlan(4), nil, res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.All(); err != nil {
		t.Fatal(err)
	}
	if res.PeakBytes() == 0 {
		t.Error("peak bytes = 0: batches were never charged")
	}
}

// The fused Ψ-scan's steady state must not allocate per row: a zero-survivor
// drain over thousands of rows stays within a small constant allocation
// budget (pipeline construction plus one pooled batch), pinning the
// zero-alloc reject path.
func TestFusedPsiScanSteadyStateAllocs(t *testing.T) {
	env := newMockEnv()
	const n = 4096
	mkUniTable(env, "t", n)
	env.pagesFor("t")
	cols := []plan.ColInfo{{Rel: "t", Name: "n", Kind: types.KindUniText}}
	node := &plan.Node{
		Op:       plan.OpFilter,
		Children: []*plan.Node{scanNode("t", cols)},
		Cols:     cols,
		// No stored name is within distance 0 of this probe: zero survivors.
		Cond: &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.Const{Val: types.NewText("zzzzzzzz")}},
	}
	run := func() {
		cur, err := Run(env, node, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := cur.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 {
			t.Fatalf("expected zero survivors, got %d", len(rows))
		}
	}
	run() // warm the G2P caches
	allocs := testing.AllocsPerRun(20, run)
	if allocs > 100 {
		t.Errorf("fused Ψ scan allocated %.0f times for %d rows; want a small constant (allocs/row ~0)", allocs, n)
	}

	// Striped: a table of fewer pages than four workers claim morsels of
	// is read whole by each worker, which keeps one record in four. Its
	// allocations are the Gather's, whatever the page count: a page costs
	// none. The batch pool may miss now and then, hence the slack of two.
	striped := map[int]float64{}
	for _, pages := range []int{4, 15} {
		env := newMockEnv()
		env.pageRows = 192
		mkUniTable(env, "t", pages*env.pageRows)
		env.pagesFor("t")
		gather := &plan.Node{Op: plan.OpGather, Children: []*plan.Node{{Op: plan.OpFilter, Children: []*plan.Node{scanNode("t", cols)},
			Cols: cols, Cond: node.Cond}}, Cols: cols, Workers: 4}
		gather.Children[0].Children[0].Parallel = true
		run := func() {
			cur, err := Run(env, gather, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rows, err := cur.All(); err != nil || len(rows) != 0 || cur.Stats.PsiEvaluations != int64(pages*env.pageRows) {
				t.Fatalf("%d rows, %d Ψ evaluations, %v; want 0, %d and no error", len(rows), cur.Stats.PsiEvaluations, err, pages*env.pageRows)
			}
		}
		run()
		striped[pages] = testing.AllocsPerRun(20, run)
	}
	t.Logf("striped scan allocations per statement by page count: %v", striped)
	if striped[15] > striped[4]+2 {
		t.Errorf("a striped Ψ scan made %.0f allocations over 4 pages and %.0f over 15; want the same", striped[4], striped[15])
	}
}

// The same pin for the fused Ω scan, in both compiled forms: a rejected row
// is read in place off the page and probed, never decoded.
func TestFusedOmegaScanSteadyStateAllocs(t *testing.T) {
	net := wordnet.Generate(wordnet.Config{Synsets: 5000, Seed: 9})
	env := newMockEnv()
	env.net = net
	const n = 4096
	// The constant is a leaf; no row names it.
	leaf := wordnet.SynsetID(net.NumSynsets() - 1)
	for len(net.Children(leaf)) > 0 {
		leaf--
	}
	for i := 0; len(env.tables["t"]) < n; i++ {
		if id := wordnet.SynsetID(i % net.NumSynsets()); id != leaf {
			env.tables["t"] = append(env.tables["t"], types.Tuple{types.NewUniText(types.Compose(net.Lemma(types.LangEnglish, id), types.LangEnglish))})
		}
	}
	env.pagesFor("t")
	cols := []plan.ColInfo{{Rel: "t", Name: "c", Kind: types.KindUniText}}
	for _, est := range []float64{n, 0} {
		scan := scanNode("t", cols)
		scan.EstRows = est
		node := &plan.Node{
			Op:       plan.OpFilter,
			Children: []*plan.Node{scan},
			Cols:     cols,
			Cond:     &plan.Omega{L: &plan.ColIdx{Idx: 0}, R: &plan.Const{Val: types.NewText(net.Lemma(types.LangEnglish, leaf))}},
		}
		allocs := testing.AllocsPerRun(20, func() {
			cur, err := Run(env, node, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := cur.All()
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 0 || cur.Stats.OmegaProbes != n {
				t.Fatalf("%d survivors and %d probes, want 0 and %d", len(rows), cur.Stats.OmegaProbes, n)
			}
		})
		if allocs > 100 {
			t.Errorf("fused Ω scan (row estimate %g) allocated %.0f times for %d rows; want a small constant (allocs/row ~0)", est, allocs, n)
		}
	}
}

// A source that already holds its rows hands them on as they are: an index
// scan's point read never draws a container from the batch pool.
func TestIndexScanNeverTouchesBatchPool(t *testing.T) {
	env := newMockEnv()
	env.tables["names"] = []types.Tuple{{u("nehru", types.LangEnglish)}, {u("patel", types.LangEnglish)}}
	env.mtree["mt"] = struct {
		table string
		col   int
	}{table: "names", col: 0}
	cols := []plan.ColInfo{{Rel: "names", Name: "n", Kind: types.KindUniText}}
	scan := &plan.Node{
		Op: plan.OpMTreeScan, Table: "names", Cols: cols,
		Index: &plan.IndexCond{Index: "mt", Probe: &plan.Const{Val: types.NewText("nehru")}, Threshold: 1},
		Cond:  &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.Const{Val: types.NewText("nehru")}, Threshold: 1},
	}
	node := &plan.Node{Op: plan.OpProject, Children: []*plan.Node{scan}, Cols: cols,
		Projs: []plan.Expr{&plan.ColIdx{Idx: 0, Kind: types.KindUniText}}}
	res := NewResources(context.Background(), 0)
	cur, err := Run(env, node, nil, res)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cur.Next(); err != nil || !ok {
		t.Fatalf("Next = ok=%v err=%v", ok, err)
	}
	if n := cur.ev.pool.InFlight(); n != 0 {
		t.Errorf("batches in flight mid-read = %d, want 0: the fetched rows were copied into a pooled batch", n)
	}
	if res.MemBytes() == 0 {
		t.Error("MemBytes mid-read = 0: the fetched rows were never charged")
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	settled(t, cur, res)
}
