package exec

import (
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
)

// Fused Ψ/Ω scans. A Filter(Ψ)-over-SeqScan pair — the shape of every
// LexEQUAL selection in the paper's Table 4 — would pay, per row, a tuple
// decode, an expression-tree walk, and an edit distance that re-splits both
// strings into runes. The fused form is the table scan (scanIter, batch.go)
// with a record kernel: it applies the statement's compiled Ψ/Ω predicate
// (predicate.go) to the raw encoded record while the heap page is pinned —
// walk to the column's bytes (types.SkipPlan), read the operand in place
// (operand.read), and match it (constPred.match), the one routine every
// reader of a compiled predicate calls. A stored UNITEXT value's filter keys
// sit at fixed offsets, and only a row they let through has its phoneme or
// text viewed in place and run through the precompiled matcher or probe.
// Whatever depends only on the constant or the schema — the matcher's match
// table, the walk to the column — is computed once, when the kernel is
// compiled. Only survivors are decoded into tuples, so a rejected row costs
// no decode, no lock and no allocation — Ψ selectivities in the workloads
// are a few percent.
//
// Fusion is chosen by build from the bound predicate's shape alone. Any shape
// the kernel cannot handle runs as vectorFilterIter over the kernel-less scan.

// fusedKernel returns the record kernel of a bound filter condition over a
// scan producing cols, nil when the shape does not fuse: only a lone Ψ or Ω
// with a constant operand does, on a column the scan produces (for any other
// the generic path raises the out-of-range error).
func (ev *evaluator) fusedKernel(cond plan.Expr, cols []plan.ColInfo) *predKernel {
	p, ok := cond.(*constPred)
	if !ok {
		return nil
	}
	skip, ok := types.NewSkipPlan(schemaKinds(cols), p.col.Idx)
	if !ok {
		return nil
	}
	return &predKernel{ev: ev, skip: skip, p: p}
}

// predKernel is a fused Ψ or Ω predicate: seek to the column, read its
// operand in place into the evaluator's, match it.
type predKernel struct {
	ev   *evaluator
	skip types.SkipPlan
	p    *constPred
}

func (k *predKernel) matchRec(rec []byte) (bool, error) {
	field, err := k.skip.Seek(rec)
	if err != nil {
		return false, err
	}
	if err := k.ev.op.read(field); err != nil {
		return false, err
	}
	return k.p.match(k.ev, &k.ev.op)
}
