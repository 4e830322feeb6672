package exec

import (
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// Fused Ψ/Ω scans. A Filter(Ψ)-over-SeqScan pair — the shape of every
// LexEQUAL selection in the paper's Table 4 — would pay, per row, a tuple
// decode, an expression-tree walk, and an edit distance that re-splits both
// strings into runes. The fused form is the table scan (scanIter, batch.go)
// with a record kernel, which runs the statement's compiled Ψ/Ω predicate
// (predicate.go) over each pinned heap page in two loops, as a vectorised
// engine selects (MonetDB/X100). selectPage key-tests the slots whose keys it
// can take as read, so a row it rejects costs no read of its record and no
// call, and the second loop reads, finishes and decodes only the rows it
// selected. Whatever depends only on the constant or the schema is computed
// once, when the kernel is compiled, and whatever depends only on the kernel
// or the page — the key kind, whether the source is striped — before a loop
// starts: each key kind has one loop over the raw slot array (selectPsi,
// selectOmega), which reads the bytes its test needs in place through the
// slot-key accessors (types.SlotSummary, types.SlotOmegaKeys) and appends to
// the selection without a branch on the outcome. Ω's test is on the slot's
// label, the pre-order number of the row's one synset (types.Keys): a row
// whose label it passes is a match, which the second loop decodes without
// reading its text, and only a row labelled ManySynsets or Unlabelled is
// verified from its text. An Ω scan on labels builds no filter over the
// taxonomy's word forms (scanShape.labelled). The counts, the checkpoint's
// cadence and the first error are a row-at-a-time loop's.
//
// Fusion is chosen by build from the predicate's shape alone (fusedShape).
// Any shape the kernel cannot handle runs as vectorFilterIter over the
// kernel-less scan.

// scanShape is what fusion needs of a filter's condition over a scan: the
// walk to the column its lone Ψ or Ω with a constant operand reads, and
// whether that column is the table's keyed one.
type scanShape struct {
	skip  types.SkipPlan
	keyed bool // the slot's keys are the column's own
	// labelled: an Ω on the keyed column, which the kernel tests on the
	// slots' labels, so that its probe needs no filter.
	labelled bool
}

// fusedShape returns the scanShape of filter condition cond, bound or not,
// over a scan producing cols; ok is false when the shape does not fuse: only
// a lone Ψ or Ω with a constant operand does, on a column the scan produces
// (for any other the generic path raises the out-of-range error). build
// decides with it, before binding, whether Ω's probe needs filters, and
// fusedKernel, after, whether the bound predicate fuses.
func fusedShape(cond plan.Expr, cols []plan.ColInfo) (s scanShape, ok bool) {
	if p, bound := cond.(*constPred); bound {
		cond = p.Expr
	}
	var l, r plan.Expr
	omega := false
	switch x := cond.(type) {
	case *plan.Psi:
		l, r = x.L, x.R
	case *plan.Omega:
		l, r, omega = x.L, x.R, true
	default:
		return s, false
	}
	col, _, _, ok := colAndConst(l, r)
	if !ok {
		return s, false
	}
	kinds := schemaKinds(cols)
	if s.skip, ok = types.NewSkipPlan(kinds, col.Idx); !ok {
		return s, false
	}
	keyed, _ := types.KeyedColumn(kinds)
	s.keyed = keyed == col.Idx
	s.labelled = omega && s.keyed
	return s, true
}

// fusedKernel returns the record kernel of a bound filter condition over a
// scan producing cols, nil when it does not fuse: its shape does not
// (fusedShape), or it is not compiled (Ω without a taxonomy).
func (ev *evaluator) fusedKernel(cond plan.Expr, cols []plan.ColInfo) *predKernel {
	p, ok := cond.(*constPred)
	if !ok {
		return nil
	}
	shape, ok := fusedShape(p, cols)
	if !ok {
		return nil
	}
	k := &predKernel{ev: ev, skip: shape.skip, p: p, keyed: shape.keyed}
	switch {
	case !k.keyed || !p.uniRows:
	case p.probe != nil:
		k.kind = keyOmega
	default:
		k.kind = keyPsi
	}
	return k
}

// predKernel is a fused Ψ or Ω predicate: key-test a page's slots, then
// walk to the column, read its operand into the evaluator's and finish the
// match only for the rows the test selected.
type predKernel struct {
	ev    *evaluator
	skip  types.SkipPlan
	p     *constPred
	keyed bool // the column is its table's keyed one: the slot's keys are its own
	// kind is the key test of selectPage: Ψ's or Ω's when the column is
	// keyed and the predicate takes the slot's keys as read when they are
	// whole (uniRows), none otherwise.
	kind keyKind
	sel  []selRow // the page's selection, reused page after page
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
		if ferr == nil && k.keyTested(slot) {
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

// keyTested reports whether selectPage key-tested a selected row with slot
// keys slot, so that only finish is left to it.
func (k *predKernel) keyTested(slot []byte) bool {
	return k.kind == keyPsi && types.SlotSummarized(slot) || k.kind == keyOmega && types.SlotHasKeys(slot)
}

// selectPage selects the live slots of pg in src's share that the key test
// passes or cannot take the keys of. Every decision that depends only on the
// kernel or the page — the key kind, and whether the source is striped — is
// made before a loop starts, and the slots are key-tested in runs, each by
// one call of the kind's loop (selectRun) over the raw slot array. A page of
// a claimed source is split only at its checkpoints: each run stops short of
// the live slot whose tick checks for cancellation (Resources.Err at each
// cancelInterval-th live slot, as tick does), which selectPage checks before
// that slot's run. A striped source's page is walked here, a live slot at a
// time, ticking each and running the kind's loop over each of this worker's
// own. The checkpoint's error stops the selection at its slot. It returns
// the rows it scanned, the key tests it made and that error.
func (k *predKernel) selectPage(pg *storage.Page, src *recordSource) (scanned int64, tested int32, err error) {
	slots, width := pg.Slots()
	end := int32(pg.Len())
	if cap(k.sel) < int(end) {
		k.sel = make([]selRow, end)
	}
	k.sel = k.sel[:end]
	kind, ev, n := k.kind, k.ev, 0
	if width != keyedWidth {
		kind = keyless
	}
	if src.mod == 0 {
		for lo := int32(0); lo < end; {
			hi := lo + min(end-lo, int32(cancelInterval-1-ev.ticks%cancelInterval))
			if hi == lo {
				for hi < end && !liveSlot(slots, width, hi) {
					hi++
				}
				if hi == end {
					break
				}
				if err = ev.res.Err(); err != nil {
					ev.ticks++
					break
				}
				hi++ // the run's one live slot takes the checkpoint's tick
			}
			var live int32
			n, tested, live = k.selectRun(kind, slots, width, lo, hi, n, tested)
			ev.ticks += uint32(live)
			scanned += int64(live)
			lo = hi
		}
	} else {
		ord, mod, idx := src.n, src.mod, src.idx
		for i := range end {
			if !liveSlot(slots, width, i) {
				continue
			}
			if ev.ticks++; ev.ticks%cancelInterval == 0 {
				if err = ev.res.Err(); err != nil {
					break
				}
			}
			mine := ord%mod == idx
			if ord++; mine {
				n, tested, _ = k.selectRun(kind, slots, width, i, i+1, n, tested)
				scanned++
			}
		}
		src.n = ord
	}
	k.sel = k.sel[:n]
	return scanned, tested, err
}

// keyKind is the key test of a kernel's select loop.
type keyKind uint8

const (
	keyless  keyKind = iota // none: every live row is selected (selectKeyless)
	keyPsi                  // Ψ's prefilter (selectPsi)
	keyOmega                // Ω's label test (selectOmega)
)

// selectRun runs the loop of key kind kind over the slots lo to hi of a
// page's slot array, slots, whose slots are width wide, appending to the
// selection from its nth row on, with tested key tests made before it. It
// returns the selection's new length, the key tests made and the live slots
// it met.
func (k *predKernel) selectRun(kind keyKind, slots []byte, width int, lo, hi int32, n int, tested int32) (int, int32, int32) {
	switch kind {
	case keyPsi:
		return selectPsi(k.sel, n, tested, slots, lo, hi, k.p.m.Prefilter)
	case keyOmega:
		return selectOmega(k.sel, n, tested, slots, lo, hi, k.p.probe)
	}
	return selectKeyless(k.sel, n, tested, slots, width, lo, hi)
}

// The key-kind loops. Each walks the slots lo to hi of a page's slot array,
// skips the dead ones and appends to sel, from its nth row on, each live
// slot its key test passes, and each whose keys it cannot take as read
// (types.SlotSummarized for Ψ, types.SlotHasKeys for Ω), with the key tests
// made up to it. A row's place in the selection is written whatever the
// outcome, which only moves the length on: the loop takes no branch on it.
// Each returns the selection's length, the key tests made and the live slots
// it met; selectPage checked for cancellation ahead of the run, which holds
// at most one checkpoint's slot.

// selectPsi is the loop of Ψ, over slots keyedWidth wide.
func selectPsi(sel []selRow, n int, tested int32, slots []byte, lo, hi int32, pf phonetic.Prefilter) (int, int32, int32) {
	live := int32(0)
	for i := lo; i < hi; i++ { //lint:gov-exempt selectPage checked for cancellation ahead of the run
		keys, ok := keyedSlot(slots, i)
		if !ok {
			continue
		}
		live++
		if !types.SlotSummarized(keys) {
			sel[n] = selRow{i, tested}
			n++
			continue
		}
		tested++
		sel[n] = selRow{i, tested}
		n += b2i(!pf.Rejects(types.SlotSummary(keys)))
	}
	return n, tested, live
}

// selectOmega is the loop of Ω, over slots keyedWidth wide.
func selectOmega(sel []selRow, n int, tested int32, slots []byte, lo, hi int32, probe *wordnet.Probe) (int, int32, int32) {
	live := int32(0)
	for i := lo; i < hi; i++ { //lint:gov-exempt selectPage checked for cancellation ahead of the run
		keys, ok := keyedSlot(slots, i)
		if !ok {
			continue
		}
		live++
		if !types.SlotHasKeys(keys) {
			sel[n] = selRow{i, tested}
			n++
			continue
		}
		tested++
		sel[n] = selRow{i, tested}
		n += b2i(probe.PassesLabel(types.SlotOmegaKeys(keys)))
	}
	return n, tested, live
}

// selectKeyless is the loop of a kernel without a key test, or of a page
// whose slots carry no keys: it selects every live slot.
func selectKeyless(sel []selRow, n int, tested int32, slots []byte, width int, lo, hi int32) (int, int32, int32) {
	live := int32(0)
	for i := lo; i < hi; i++ { //lint:gov-exempt selectPage checked for cancellation ahead of the run
		if liveSlot(slots, width, i) {
			sel[n] = selRow{i, tested}
			n++
			live++
		}
	}
	return n, tested, live
}

// keyedWidth is the width of a slot that carries slot keys.
const keyedWidth = storage.SlotHeaderBytes + types.SlotKeyBytes

// keyedSlot is the keys of slot i of a slot array of slots keyedWidth wide,
// and whether the slot is live.
func keyedSlot(slots []byte, i int32) ([]byte, bool) {
	return storage.SlotKeys(slots[int(i)*keyedWidth:][:keyedWidth])
}

// liveSlot reports whether slot i of a slot array of slots width wide is
// live.
func liveSlot(slots []byte, width int, i int32) bool {
	_, live := storage.SlotKeys(slots[int(i)*width:][:width])
	return live
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
