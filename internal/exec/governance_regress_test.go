package exec

import (
	"context"
	"errors"
	"testing"

	"github.com/mural-db/mural/internal/leakcheck"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
)

// A Gather worker whose batch charge trips the memory ceiling must return the
// failed batch's bytes: Grow records the charge even on failure, and the
// batch never reaches the consumer, so nothing downstream can release it.
// Regression test — a failing charge used to stay accounted.
func TestGatherGrowFailureReleasesBatchCharge(t *testing.T) {
	leakcheck.Check(t)
	env := newMockEnv()
	mkIntTable(env, "t", 2000)
	gather := gatherOverScan("t", 2, true)
	// A 1-byte ceiling fails the first batch charge in every worker.
	res := NewResources(context.Background(), 1)
	cur, err := Run(env, gather, nil, res)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 5000; i++ {
		_, ok, err := cur.Next()
		if err != nil {
			lastErr = err
			break
		}
		if !ok {
			break
		}
	}
	if !errors.Is(lastErr, ErrMemoryLimit) {
		t.Fatalf("Next under 1-byte budget = %v, want ErrMemoryLimit", lastErr)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("Close after memory-limit error: %v", err)
	}
	if got := res.MemBytes(); got != 0 {
		t.Errorf("MemBytes after Close = %d, want 0 (failed batch's charge must be returned)", got)
	}
}

// canceledScan builds a table scan over 4*cancelInterval rows under an
// already-canceled query, with the evaluator shape a Gather worker gets:
// shared governance state, private tick counter.
func canceledScan(t *testing.T, stripe func(*recordSource)) *scanIter {
	t.Helper()
	env := newMockEnv()
	// Enough rows that the amortized checkpoint (every cancelInterval rows)
	// fires well before exhaustion.
	mkIntTable(env, "t", 4*cancelInterval)
	np, err := env.TablePages("t")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev := &evaluator{env: env, stats: &RunStats{}, res: NewResources(ctx, 0), pool: NewBatchPool()}
	src := &recordSource{env: env, ev: ev, src: &morselSource{table: "t", npages: np, chunk: morselChunkPages}}
	if stripe != nil {
		stripe(src)
	}
	return &scanIter{ev: ev, src: src, kern: &pageKernel{ev: ev}}
}

// A morsel scan over a canceled query must surface ErrCanceled within one
// tick interval instead of draining the table. Regression test — the claim
// loop used to run without a cancellation checkpoint.
func TestMorselScanChecksCancellation(t *testing.T) {
	it := canceledScan(t, nil)
	defer it.Close()
	if _, err := it.NextBatch(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("morsel scan under canceled context = %v, want ErrCanceled", err)
	}
}

// The striped fallback partition must checkpoint too: a worker skips through
// mod-1 of every mod records without surfacing one, so the checkpoint cannot
// live only on the rows it keeps. Regression test — the stripe loop used to
// run without a cancellation checkpoint. The stripe here keeps no record at
// all, so only the skip path can notice the cancellation.
func TestStripedScanChecksCancellation(t *testing.T) {
	it := canceledScan(t, func(s *recordSource) { s.idx, s.mod = 4*cancelInterval, 4*cancelInterval+1 })
	defer it.Close()
	if _, err := it.NextBatch(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("striped scan under canceled context = %v, want ErrCanceled", err)
	}
}

// A nested-loops join over a canceled query must surface ErrCanceled within
// one tick interval of pairs, not finish its batch: the pass over the inner
// side is a row loop like any other, in the general join and in the hoisted
// Ψ join. The scans (and the hoisted join's load) tick 300 times between
// them, fewer than one interval, so only the pair loop can notice.
func TestNLJoinChecksCancellation(t *testing.T) {
	leakcheck.Check(t)
	env := newMockEnv()
	mkIntTable(env, "o", 100)
	mkIntTable(env, "i", 200)
	mkUniTable(env, "uo", 100)
	mkUniTable(env, "ui", 200)
	ints := []plan.ColInfo{{Name: "v", Kind: types.KindInt}}
	unis := []plan.ColInfo{{Name: "n", Kind: types.KindUniText}}
	for name, join := range map[string]*plan.Node{
		"cross": {Op: plan.OpNLJoin, Children: []*plan.Node{scanNode("o", ints), scanNode("i", ints)}, Cols: append(ints, ints...)},
		"hoisted Ψ": {Op: plan.OpPsiJoin, Children: []*plan.Node{scanNode("uo", unis), scanNode("ui", unis)}, Cols: append(unis, unis...),
			Cond: &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.ColIdx{Idx: 1}}},
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cur, err := Run(env, join, nil, NewResources(ctx, 0))
			if err != nil {
				t.Fatal(err)
			}
			cancel()
			if _, _, err := cur.Next(); !errors.Is(err, ErrCanceled) {
				t.Errorf("first Next of a canceled %s join = %v, want ErrCanceled", name, err)
			}
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Sanity companion to the regression tests above: an ungoverned parallel
// scan (nil Resources) still terminates and returns every row — the new
// checkpoints must be free when the query has no governance state.
func TestParallelScanUngovernedStillDrains(t *testing.T) {
	env := newMockEnv()
	want := mkIntTable(env, "t", 100)
	got := runAll(t, env, gatherOverScan("t", 2, true))
	eqRowSets(t, got, want)
}
