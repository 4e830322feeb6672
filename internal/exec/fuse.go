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
// (predicate.go) to the raw encoded record while the heap page is pinned.
// The scan's page loop walks the pinned page's slots itself and hands each
// live record to matchRec: the fast walk to the column's bytes
// (types.SkipPlan.Offset, Seek where it declines), then, for a stored
// UNITEXT value whose keys the test can take as read, the key test on its
// language and filter keys (types.StoredKeys, constPred.filter, which for Ψ
// inlines) before anything else is read; only a row the keys let through has
// its operand read (operand.read) and finished (constPred.finish: its phoneme
// or text viewed in place and run through the precompiled matcher or probe).
// Any other operand goes through operand.read and constPred.match, the one
// routine every reader of a compiled predicate calls, of which the key test
// and finish are the two halves. Whatever depends only on the constant or
// the schema — the matcher's match table, the walk to the column — is
// computed once, when the kernel is compiled. Only survivors are decoded
// into tuples, so a rejected row costs no decode, no lock, no allocation and
// no call past matchRec — Ψ selectivities in the workloads are a few
// percent.
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

// predKernel is a fused Ψ or Ω predicate: walk to the column, key-test its
// operand in place, and read it into the evaluator's and finish the match
// only when the test lets it through.
type predKernel struct {
	ev   *evaluator
	skip types.SkipPlan
	p    *constPred
}

// matchRec matches the record rec. It walks to the column — the fast walk
// (SkipPlan.Offset) where it answers, else Seek — and key-tests a stored
// operand whose keys the test can take as read (constPred.storedKeys) before
// reading it, which only a row the test lets through costs. Any other operand
// goes through operand.read and match.
func (k *predKernel) matchRec(rec []byte) (bool, error) {
	var field []byte
	if off, ok := k.skip.Offset(rec); ok {
		field = rec[off:]
	} else {
		var err error
		if field, err = k.skip.Seek(rec); err != nil {
			return false, err
		}
	}
	p, op := k.p, &k.ev.op
	if lang, keys, ok := p.storedKeys(field); ok {
		// filter, with Ψ's psiFilter inlined: a row it rejects costs no
		// call. A constPred method for this test would not inline (cost
		// 150 against 80).
		if p.m != nil && !p.psiFilter(k.ev, keys.Phoneme) || p.m == nil && !p.filter(k.ev, lang, keys) {
			return false, nil
		}
		if err := op.read(field); err != nil {
			return false, err
		}
		return p.finish(k.ev, op)
	}
	if err := op.read(field); err != nil {
		return false, err
	}
	return p.match(k.ev, op)
}
