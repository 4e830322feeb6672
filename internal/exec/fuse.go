package exec

import (
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

// Fused Ψ/Ω scans. A Filter(Ψ)-over-SeqScan pair — the shape of every
// LexEQUAL selection in the paper's Table 4 — would pay, per row, a tuple
// decode, an expression-tree walk, and an edit distance that re-splits both
// strings into runes. The fused form is the table scan (scanIter, batch.go)
// with a record kernel, which runs the statement's compiled Ψ/Ω predicate
// (predicate.go) over each pinned heap page in two loops, as a vectorised
// engine selects (MonetDB/X100): selectPage key-tests the slots whose keys
// it can take as read (constPred.storedKeys), so a row it rejects costs no
// read of its record and no call, and the second loop reads, finishes and
// decodes only the rows it selected. Whatever depends only on the constant
// or the schema is computed once, when the kernel is compiled. The counts,
// the checkpoint's cadence and the first error are a row-at-a-time loop's.
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

// predKernel is a fused Ψ or Ω predicate: key-test a page's slots, then
// walk to the column, read its operand into the evaluator's and finish the
// match only for the rows the test selected.
type predKernel struct {
	ev    *evaluator
	skip  types.SkipPlan
	p     *constPred
	keyed bool     // the column is its table's keyed one: the slot's keys are its own
	sel   []selRow // the page's selection, reused page after page
}

// selRow is a row of a page's selection: its slot, and the key tests made up
// to it, itself included — the count when its finish fails.
type selRow struct{ slot, tested int32 }

// scanPage runs the kernel over pg, a page of src: selectPage fills the
// selection, then the rows selected are read, finished and, when they
// match, decoded onto b. It returns the live rows of src's share it scanned.
func (k *predKernel) scanPage(pg *storage.Page, src *recordSource, b *Batch) (int64, error) {
	scanned, tested, err := k.selectPage(pg, src)
	p, op := k.p, &k.ev.op
	for _, r := range k.sel { //lint:gov-exempt selectPage ran the checkpoint for each of these rows
		slot, _ := pg.Keys(int(r.slot))
		if !k.keyed {
			slot = nil
		}
		rec, _ := pg.Record(int(r.slot))
		keep, ferr := false, op.readRecord(&k.skip, rec, slot, p.probe != nil)
		if _, _, passed := p.storedKeys(slot); ferr == nil && passed {
			keep, ferr = p.finish(k.ev, op)
		} else if ferr == nil {
			keep, ferr = p.match(k.ev, op)
		}
		if keep && ferr == nil {
			var t types.Tuple
			if t, _, ferr = types.DecodeTuple(rec); ferr == nil {
				b.Rows = append(b.Rows, t)
			}
		}
		if ferr != nil {
			k.ev.count(p.probe != nil, int64(r.tested))
			return scanned, ferr
		}
	}
	k.ev.count(p.probe != nil, int64(tested))
	return scanned, err
}

// selectPage selects the live slots of pg in src's share that the key test
// passes or cannot take the keys of, with the tick count, the ordinal and
// the test's constants in locals. It returns the rows it scanned, the key
// tests it made and the checkpoint's error, which stops it at its slot.
func (k *predKernel) selectPage(pg *storage.Page, src *recordSource) (scanned int64, tested int32, err error) {
	slots, width := pg.Slots()
	k.sel = k.sel[:0]
	p, ev, keyed, probe := k.p, k.ev, k.keyed, k.p.probe
	var pf phonetic.Prefilter
	if p.m != nil {
		pf = p.m.Prefilter
	}
	ticks, n := ev.ticks, src.n
	for i := range int32(pg.Len()) {
		keys, live := storage.SlotKeys(slots[int(i)*width : int(i+1)*width])
		if !live {
			continue
		}
		if ticks++; ticks%cancelInterval == 0 {
			if err = ev.res.Err(); err != nil {
				break
			}
		}
		if src.mod != 0 {
			mine := n%src.mod == src.idx
			if n++; !mine {
				continue
			}
		}
		scanned++
		lang, kk, ok := p.storedKeys(keys)
		if !ok || !keyed {
			k.sel = append(k.sel, selRow{i, tested})
			continue
		}
		if tested++; probe != nil && probe.Passes(lang, kk.Hash, kk.ASCII) || probe == nil && !pf.Rejects(kk.Phoneme) {
			k.sel = append(k.sel, selRow{i, tested})
		}
	}
	ev.ticks, src.n = ticks, n
	return scanned, tested, err
}
