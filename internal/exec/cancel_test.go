package exec

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/mural-db/mural/internal/leakcheck"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
)

// psiFilterScan builds a Ψ filter over a (optionally parallel) scan of t.
func psiFilterScan(table string, parallel bool) *plan.Node {
	cols := []plan.ColInfo{{Rel: table, Name: "n", Kind: types.KindUniText}}
	scan := scanNode(table, cols)
	scan.Parallel = parallel
	return &plan.Node{
		Op:       plan.OpFilter,
		Children: []*plan.Node{scan},
		Cols:     cols,
		Cond: &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.Const{Val: types.NewText("akash")},
			Threshold: 1},
	}
}

// mkUniTable populates table name with n UNITEXT rows cycling through a few
// names, enough of them that every Gather worker crosses several cancel
// checkpoints.
func mkUniTable(env *mockEnv, name string, n int) {
	names := []string{"akash", "akaash", "vikram", "aakash", "priya"}
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{u(names[i%len(names)], types.LangEnglish)}
	}
	env.tables[name] = rows
}

// Canceling a parallel Ψ scan mid-drain must surface ErrCanceled from Next
// and leave no Gather worker running.
func TestCancelDuringParallelPsiScan(t *testing.T) {
	leakcheck.Check(t)
	env := newMockEnv()
	mkUniTable(env, "t", 20000)
	gather := &plan.Node{
		Op:       plan.OpGather,
		Children: []*plan.Node{psiFilterScan("t", true)},
		Cols:     []plan.ColInfo{{Rel: "t", Name: "n", Kind: types.KindUniText}},
		Workers:  4,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cur, err := Run(env, gather, nil, NewResources(ctx, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cur.Next(); err != nil || !ok {
		t.Fatalf("first Next = ok=%v err=%v", ok, err)
	}
	cancel()
	var lastErr error
	for i := 0; i < 100000; i++ {
		_, ok, err := cur.Next()
		if err != nil {
			lastErr = err
			break
		}
		if !ok {
			t.Fatal("cursor drained to completion despite cancel")
		}
	}
	if !errors.Is(lastErr, ErrCanceled) {
		t.Fatalf("Next after cancel = %v, want ErrCanceled", lastErr)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("Close after canceled Next: %v", err)
	}
}

// A deadline expiring mid-drain surfaces ErrQueryTimeout at the next
// checkpoint; one expiring before the run starts fails Run itself.
func TestTimeoutSurfacesTypedError(t *testing.T) {
	env := newMockEnv()
	mkUniTable(env, "t", 8192)
	env.pagesFor("t") // lay the mock heap out before the deadline starts, as a real heap is
	node := psiFilterScan("t", false)

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	cur, err := Run(env, node, nil, NewResources(ctx, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cur.Next(); err != nil || !ok {
		t.Fatalf("first Next = ok=%v err=%v", ok, err)
	}
	time.Sleep(40 * time.Millisecond) // let the deadline pass mid-drain
	var lastErr error
	for i := 0; i < 100000; i++ {
		_, ok, err := cur.Next()
		if err != nil {
			lastErr = err
			break
		}
		if !ok {
			break
		}
	}
	if !errors.Is(lastErr, ErrQueryTimeout) {
		t.Fatalf("Next after deadline = %v, want ErrQueryTimeout", lastErr)
	}
	_ = cur.Close()

	// Already-expired deadline: refused before any iterator is built.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := Run(env, node, nil, NewResources(expired, 0)); !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("Run with expired deadline = %v, want ErrQueryTimeout", err)
	}

	// A deadline that passed before its context's timer ran — a query busy
	// on the only P holds that timer off — is read off the clock.
	if err := NewResources(unfiredCtx{time.Now().Add(-time.Millisecond)}, 0).Err(); !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("Err past an unfired deadline = %v, want ErrQueryTimeout", err)
	}
}

// unfiredCtx is a context whose deadline has passed but whose timer has not
// yet canceled it.
type unfiredCtx struct{ d time.Time }

func (c unfiredCtx) Deadline() (time.Time, bool) { return c.d, true }
func (unfiredCtx) Done() <-chan struct{}         { return nil }
func (unfiredCtx) Err() error                    { return nil }
func (unfiredCtx) Value(any) any                 { return nil }

// A sort that materializes past the memory ceiling fails with ErrMemoryLimit,
// and closing the cursor returns every accounted byte.
func TestMemoryLimitFailsMaterializingQuery(t *testing.T) {
	env := newMockEnv()
	mkIntTable(env, "t", 5000)
	cols := []plan.ColInfo{{Rel: "t", Name: "v", Kind: types.KindInt}}
	node := &plan.Node{
		Op:       plan.OpSort,
		Children: []*plan.Node{scanNode("t", cols)},
		Cols:     cols,
		SortKeys: []plan.Expr{&plan.ColIdx{Idx: 0, Kind: types.KindInt}},
		SortDesc: []bool{false},
	}
	res := NewResources(context.Background(), 16<<10)
	cur, err := Run(env, node, nil, res)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cur.All()
	if !errors.Is(err, ErrMemoryLimit) {
		t.Fatalf("All under 16KiB budget = %v, want ErrMemoryLimit", err)
	}
	if got := res.MemBytes(); got != 0 {
		t.Errorf("MemBytes after Close = %d, want 0 (all charges released)", got)
	}
	if res.PeakBytes() <= 16<<10 {
		t.Errorf("PeakBytes = %d, want > budget (the failing charge is recorded)", res.PeakBytes())
	}
}

// An unlimited governed run tracks peak memory for EXPLAIN ANALYZE and
// releases everything by cursor close.
func TestPeakAccountingBalancesOnSuccess(t *testing.T) {
	leakcheck.Check(t)
	env := newMockEnv()
	mkIntTable(env, "t", 2000)
	cols := []plan.ColInfo{{Rel: "t", Name: "v", Kind: types.KindInt}}
	gather := &plan.Node{
		Op: plan.OpGather,
		Children: []*plan.Node{{
			Op:       plan.OpSort,
			Children: []*plan.Node{func() *plan.Node { n := scanNode("t", cols); n.Parallel = true; return n }()},
			Cols:     cols,
			SortKeys: []plan.Expr{&plan.ColIdx{Idx: 0, Kind: types.KindInt}},
			SortDesc: []bool{false},
		}},
		Cols:    cols,
		Workers: 2,
	}
	res := NewResources(context.Background(), 0)
	cur, err := Run(env, gather, nil, res)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2000 {
		t.Fatalf("rows = %d, want 2000", len(rows))
	}
	if res.PeakBytes() == 0 {
		t.Error("PeakBytes = 0; materializing operators accounted nothing")
	}
	if got := res.MemBytes(); got != 0 {
		t.Errorf("MemBytes after drain = %d, want 0 (charges balanced)", got)
	}
}

// Cancel racing normal completion: whichever wins, the result is either a
// complete row set or ErrCanceled, with no panic and no leaked workers.
func TestCancelRacesCompletion(t *testing.T) {
	leakcheck.Check(t)
	env := newMockEnv()
	mkUniTable(env, "t", 3000)
	gather := &plan.Node{
		Op:       plan.OpGather,
		Children: []*plan.Node{psiFilterScan("t", true)},
		Cols:     []plan.ColInfo{{Rel: "t", Name: "n", Kind: types.KindUniText}},
		Workers:  4,
	}
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cur, err := Run(env, gather, nil, NewResources(ctx, 0))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func(delay time.Duration) {
			defer wg.Done()
			time.Sleep(delay)
			cancel()
		}(time.Duration(i%5) * 100 * time.Microsecond)
		_, err = cur.All()
		wg.Wait()
		if err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("iteration %d: drain error = %v, want nil or ErrCanceled", i, err)
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("iteration %d: Close = %v", i, err)
		}
		cancel()
	}
}
