package exec

import (
	"context"
	"errors"
	"testing"

	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
)

// trackIter is an empty operator that records Close calls; closeErr is
// returned from Close to test error propagation.
type trackIter struct {
	closed   bool
	closeErr error
}

func (t *trackIter) NextBatch() (*Batch, error) { return nil, nil }

func (t *trackIter) Close() error {
	t.closed = true
	return t.closeErr
}

// chargedScan returns an env and an index-scan node over its table "l". A
// table scan opens nothing until its first pull, but an index scan holds its
// fetched rows, charged to the query, from the moment it is built — so an
// operator a builder's error path forgot to close shows as bytes still
// accounted.
func chargedScan() (*mockEnv, *plan.Node) {
	env := newMockEnv()
	env.tables["l"] = []types.Tuple{{u("nehru", types.LangEnglish)}, {u("neru", types.LangEnglish)}}
	env.mtree["mt_l"] = struct {
		table string
		col   int
	}{table: "l", col: 0}
	return env, &plan.Node{
		Op: plan.OpMTreeScan, Table: "l",
		Cols:  []plan.ColInfo{{Rel: "l", Name: "n", Kind: types.KindUniText}},
		Index: &plan.IndexCond{Index: "mt_l", Probe: &plan.Const{Val: types.NewText("nehru")}, Threshold: 1},
	}
}

// A join builder whose right child fails to build must close the left
// child it already built, not leak it.
func TestJoinBuildersCloseLeftOnRightFailure(t *testing.T) {
	// The last case hoists its Ψ, and its join opens the inner scan itself.
	psi := &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.ColIdx{Idx: 1}, Threshold: 1}
	for _, tc := range []struct {
		op   plan.OpType
		cond plan.Expr
	}{{plan.OpNLJoin, nil}, {plan.OpHashJoin, nil}, {plan.OpPsiJoin, nil}, {plan.OpOmegaJoin, nil}, {plan.OpPsiJoin, psi}} {
		op := tc.op
		env, left := chargedScan()
		// "r" is absent: building the right child fails after the left
		// child holds its rows.
		n := &plan.Node{Op: op, Children: []*plan.Node{left, {Op: plan.OpSeqScan, Table: "r", Cols: left.Cols}}, Cond: tc.cond}
		res := NewResources(context.Background(), 0)
		if _, err := Run(env, n, nil, res); err == nil {
			t.Fatalf("%s: expected build error for missing right table", op)
		}
		if res.PeakBytes() == 0 {
			t.Fatalf("%s: left child never charged its rows; the test observes nothing", op)
		}
		if b := res.MemBytes(); b != 0 {
			t.Errorf("%s: left child leaked when right build failed: %d bytes still accounted", op, b)
		}
	}
}

func TestNLJoinClosePropagatesOuterError(t *testing.T) {
	outerErr := errors.New("outer close failed")
	j := &nlJoinIter{
		outer: &trackIter{closeErr: outerErr},
		inner: &materializeIter{child: &trackIter{}},
	}
	if err := j.Close(); !errors.Is(err, outerErr) {
		t.Fatalf("nlJoinIter.Close dropped the outer operator's error: got %v", err)
	}
}

func TestHashJoinClosePropagatesProbeError(t *testing.T) {
	probeErr := errors.New("probe close failed")
	build := &trackIter{}
	j := &lookupJoinIter{
		outer: &trackIter{closeErr: probeErr},
		hash:  &hashSide{src: build},
	}
	if err := j.Close(); !errors.Is(err, probeErr) {
		t.Fatalf("lookupJoinIter.Close dropped the probe operator's error: got %v", err)
	}
	if !build.closed {
		t.Error("lookupJoinIter.Close left the hash build side open")
	}
}

func TestCursorAllPropagatesCloseError(t *testing.T) {
	closeErr := errors.New("close failed")
	c := &Cursor{src: &trackIter{closeErr: closeErr}}
	if _, err := c.All(); !errors.Is(err, closeErr) {
		t.Fatalf("Cursor.All dropped the close error: got %v", err)
	}
}

// failIter fails its NextBatch with err, then closes failed.
type failIter struct {
	trackIter
	err    error
	failed chan struct{}
}

func (f *failIter) NextBatch() (*Batch, error) {
	defer close(f.failed)
	return nil, f.err
}

// waitIter ends its stream once failed is closed.
type waitIter struct {
	trackIter
	failed chan struct{}
}

func (w *waitIter) NextBatch() (*Batch, error) {
	<-w.failed
	return nil, nil
}

// A Gather reports one worker's NextBatch error but hides no worker's Close
// error (an unpin or a charge that fails), as a serial cursor reports both.
func TestGatherJoinsWorkerCloseErrors(t *testing.T) {
	nextErr, closeErr, failed := errors.New("scan failed"), errors.New("unpin failed"), make(chan struct{})
	g := &gatherIter{parent: &evaluator{stats: &RunStats{}}, stop: make(chan struct{})}
	for _, root := range []BatchIter{&failIter{err: nextErr, failed: failed}, &waitIter{trackIter{closeErr: closeErr}, failed}} {
		g.workers = append(g.workers, &gatherWorker{root: root, ev: &evaluator{stats: &RunStats{}}})
	}
	if _, err := g.NextBatch(); err == nil || err.Error() != "scan failed\nunpin failed" {
		t.Fatalf("NextBatch error = %q, want the scan's and the close's", err)
	}
	if err := g.Close(); err != nil {
		t.Errorf("Close after surfaced error = %v, want nil", err)
	}
}
