package exec

import (
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

// Fused Ψ/Ω scans. A Filter(Ψ)-over-SeqScan pair — the shape of every
// LexEQUAL selection in the paper's Table 4 — would pay, per row, a tuple
// decode, an expression-tree walk, and an edit distance that re-splits both
// strings into runes. The fused form is the table scan (scanIter, batch.go)
// with a record kernel: it applies the statement's compiled Ψ/Ω predicate
// (predicate.go) to the row in place while the heap page is pinned. The
// scan's page loop walks the pinned page's slots itself and hands each live
// slot to matchSlot. On the table's keyed column a slot's keys whose test can
// take them as read (constPred.storedKeys) are key-tested first
// (constPred.filter, which for Ψ inlines): a row they reject costs no read of
// its record. Only a row the keys let through has its operand read
// (operand.readRecord) and finished (constPred.finish: the record walked to
// the column, types.SkipPlan.Offset or Seek where it declines, and its
// phoneme or text viewed in place and run through the precompiled matcher or
// probe). Any other operand goes through operand.readRecord and
// constPred.match, the one routine
// every reader of a compiled predicate calls, of which the key test and
// finish are the two halves. Whatever depends only on the constant or the
// schema — the matcher's match table, the walk to the column, whether it is
// the keyed one — is computed once, when the kernel is compiled. Only
// survivors are decoded into tuples, so a rejected row costs no decode, no
// lock, no allocation and no call past matchSlot — Ψ selectivities in the
// workloads are a few percent.
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
	kinds := schemaKinds(cols)
	skip, ok := types.NewSkipPlan(kinds, p.col.Idx)
	if !ok {
		return nil
	}
	keyed, _ := types.KeyedColumn(kinds)
	return &predKernel{ev: ev, skip: skip, p: p, keyed: keyed == p.col.Idx}
}

// predKernel is a fused Ψ or Ω predicate: key-test the slot, walk to the
// column, read its operand into the evaluator's and finish the match only
// when the test lets it through.
type predKernel struct {
	ev    *evaluator
	skip  types.SkipPlan
	p     *constPred
	keyed bool // the column is its table's keyed one: the slot's keys are its own
}

// matchSlot matches the row in slot i of pg, whose slot keys are slot. On
// the keyed column it key-tests keys it can take as read
// (constPred.storedKeys) before it reads the record, which only a row the
// test lets through costs; any other operand goes through operand.readRecord
// and match.
func (k *predKernel) matchSlot(pg *storage.Page, i int, slot []byte) (bool, error) {
	if !k.keyed {
		slot = nil
	}
	p, op := k.p, &k.ev.op
	lang, keys, tested := p.storedKeys(slot)
	// filter, with Ψ's psiFilter inlined: a row it rejects costs no call. A
	// constPred method for this test would not inline (cost 150 against 80).
	if tested && (p.m != nil && !p.psiFilter(k.ev, keys.Phoneme) || p.m == nil && !p.filter(k.ev, lang, keys)) {
		return false, nil
	}
	rec, _ := pg.Record(i)
	if err := op.readRecord(&k.skip, rec, slot, p.probe != nil); err != nil {
		return false, err
	}
	if tested {
		return p.finish(k.ev, op)
	}
	return p.match(k.ev, op)
}
