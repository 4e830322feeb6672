package exec

import (
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// The page kernel: Ψ and Ω as one compiled kernel over heap pages, the one
// loop nest of a selection and a join. A block of compiled predicates
// (constPred, predicate.go) meets a page's records: the hoisted join
// (join.go) runs a block of one predicate per outer row, a fused Ψ/Ω scan
// (scanIter, batch.go) a block of one row, the bound constant, and a scan
// without a predicate the empty block, which every record matches. A page
// meets the block in two loops, as a vectorised engine selects (X100):
//
//   - Select (selectPage) walks the raw slot array and appends each pair (a
//     record and an outer row) it keeps to the selection, with no branch on
//     the outcome. A pair whose slot keys the block's key test takes as read
//     (keyTests) is key-tested in place through the slot-key accessors and
//     kept when it passes; any other is kept to be matched in full. There is
//     one loop per key kind, chosen per run. A run stops short of the pair
//     whose tick checks for cancellation and when the selection holds the
//     pairs the caller has room for; a scan's room is unlimited. A striped
//     share is walked in selectPage.
//   - Finish (finish) reads each selected record's operand once, finishes a
//     pair its key test passed (constPred.finish) and matches any other
//     (constPred.match), and decodes the record on its first match. A record
//     every pair's key test rejects is never read.
//
// A selection that stops inside a record resumes there, at (slot, outer
// row), with the record's decoded row and conversion. The counts, the
// checkpoint's cadence (a tick per pair, and per record left to another
// worker) and the first error are a row-at-a-time loop's. Fusion is chosen
// by build from the predicate's shape alone (fusedShape); any other shape
// runs as vectorFilterIter over the scan with the empty block.

// fusedShape returns the kernel, without its block, of filter condition
// cond, bound or not, over a scan producing cols; ok is false unless cond is
// a lone Ψ or Ω with a constant operand on a column the scan produces. build
// decides with it, before binding, whether an Ω probe needs filters (not on
// the keyed column: it tests labels), and fusedKernel, after, the fusion.
func fusedShape(cond plan.Expr, cols []plan.ColInfo) (k pageKernel, ok bool) {
	if p, bound := cond.(*constPred); bound {
		cond = p.Expr
	}
	var l, r plan.Expr
	switch x := cond.(type) {
	case *plan.Psi:
		l, r = x.L, x.R
	case *plan.Omega:
		l, r, k.hash = x.L, x.R, true
	default:
		return k, false
	}
	col, _, _, ok := colAndConst(l, r)
	if !ok {
		return k, false
	}
	kinds := schemaKinds(cols)
	if k.skip, ok = types.NewSkipPlan(kinds, col.Idx); !ok {
		return k, false
	}
	keyed, _ := types.KeyedColumn(kinds)
	k.keyed = keyed == col.Idx
	return k, true
}

// fusedKernel returns the page kernel of a bound filter condition over a
// scan producing cols, a block of one, nil when it does not fuse: its shape
// does not (fusedShape), or it is not compiled (Ω without a taxonomy).
func (ev *evaluator) fusedKernel(cond plan.Expr, cols []plan.ColInfo) *pageKernel {
	p, bound := cond.(*constPred)
	k, ok := fusedShape(cond, cols)
	if !bound || !ok {
		return nil
	}
	k.ev, k.preds = ev, []*constPred{p}
	k.keyTests()
	return &k
}

// pageKernel is the page kernel over one block of predicates.
type pageKernel struct {
	ev    *evaluator
	skip  types.SkipPlan // the walk to the operand
	keyed bool           // the operand is its table's keyed column: the slot's keys are its own
	hash  bool           // Ω: an operand read without slot keys needs its text's hash
	// The block: a predicate per outer row, and their key tests (keyTests).
	preds  []*constPred
	pfs    []phonetic.Prefilter // Ψ: each row's prefilter
	probes []*wordnet.Probe     // Ω: each row's probe
	sel    []pairSel            // a page's selection, reused page after page
	// The outer row the selection resumes at inside a record, and that
	// record's decoded row and conversion.
	oi        int
	dec       types.Tuple
	conv      string
	converted bool
	streamed  int64 // the records of the source's share begun
}

// pairSel is an entry of a page's selection, written in two stores: its pair
// packed into at (the record's slot, under keyedBit; keyedBit when the key
// test passed the pair, so that only finish is left; the outer row, under
// 1<<16, in the top bits), and the key tests made up to it, the count when
// its finish fails.
type pairSel struct {
	at     uint32
	tested int32
}

const keyedBit = 1 << 15

// keyTests gathers the key tests of a block that has none yet: each
// predicate's Ψ prefilter or Ω probe when the operand is the keyed column and
// every predicate takes its slot keys as read (uniRows), none otherwise.
func (k *pageKernel) keyTests() {
	for _, p := range k.preds {
		switch {
		case !k.keyed || !p.uniRows:
			k.pfs, k.probes = k.pfs[:0], k.probes[:0]
			return
		case k.hash:
			k.probes = append(k.probes, p.probe)
		default:
			k.pfs = append(k.pfs, p.m.Prefilter)
		}
	}
}

// scanPage runs the kernel over pg, a page of src (nil for a page whose
// records passed src when they were copied), from slot from and outer row
// k.oi on, in rounds of select and finish that fill out up to limit rows,
// each match joined to its row of outer (nil: the record alone). It returns
// the slot it stopped at.
func (k *pageKernel) scanPage(pg *storage.Page, from int, src *recordSource, out *Batch, outer []types.Tuple, limit int) (stop int, err error) {
	n := pg.Len()
	for stop = from; stop < n && len(out.Rows) < limit; {
		next, oi, tested, serr := k.selectPage(pg, stop, src, limit-len(out.Rows))
		if err = k.finish(pg, stop, next, oi, out, outer); err == nil {
			k.ev.count(k.hash, int64(tested))
			err = serr
		}
		if err != nil {
			return next, err
		}
		stop = next
	}
	return stop, nil
}

// selectPage selects into k.sel the pairs of pg's live records in src's
// share with the block, from slot from and outer row k.oi on, at most room.
// A striped share is walked here a live slot at a time: a record left to
// another worker takes a tick, one of this worker's its ordinal, then run.
// It returns the slot and outer row it stopped before, the key tests it made
// and the checkpoint's error, which stops it at its pair.
func (k *pageKernel) selectPage(pg *storage.Page, from int, src *recordSource, room int) (stop, oi int, tested int32, err error) {
	slots, width := pg.Slots()
	end := int32(pg.Len())
	need := min(room, (int(end)-from)*max(len(k.preds), 1))
	if cap(k.sel) < need {
		k.sel = make([]pairSel, need)
	}
	sel, n, i := k.sel[:need], 0, int32(from)
	oi = k.oi
	if src == nil || src.mod == 0 {
		n, tested, i, oi, err = k.run(pg, sel, n, tested, i, end, oi)
	} else {
		for ; i < end; i++ {
			if oi == 0 {
				if !liveSlot(slots, width, i) {
					continue
				}
				if n == len(sel) {
					break
				}
				if src.skip() {
					if err = k.ev.tick(); err != nil {
						break
					}
					continue
				}
			}
			if n, tested, _, oi, err = k.run(pg, sel, n, tested, i, i+1, oi); err != nil || oi > 0 {
				break
			}
		}
	}
	k.sel = sel[:n]
	return int(i), oi, tested, err
}

// run selects into sel, from its nth entry on, the pairs of the live records
// in slots i to end of pg, from outer row oi on, in runs of the key kind's
// loop over whole records that end short of the pair whose tick checks for
// cancellation, which run checks itself (never past the last live slot),
// and of sel's room; a record no run can take whole runs alone, as many of
// its outer rows as fit. It returns sel's length, the key tests made, the
// slot and outer row it stopped before and the checkpoint's error.
func (k *pageKernel) run(pg *storage.Page, sel []pairSel, n int, tested int32, i, end int32, oi int) (int, int32, int32, int, error) {
	slots, width := pg.Slots()
	ev, np, pfs, probes := k.ev, max(len(k.preds), 1), k.pfs, k.probes
	if width != keyedWidth {
		pfs, probes = nil, nil // a page whose slots carry no keys
	}
	for {
		for oi == 0 && i < end && !liveSlot(slots, width, i) { //lint:gov-exempt skips dead slots to the next run's first pair
			i++
		}
		if i == end || n == len(sel) {
			return n, tested, i, oi, nil
		}
		pairs := int(cancelInterval - 1 - ev.ticks%cancelInterval)
		if pairs == 0 {
			if err := ev.res.Err(); err != nil {
				ev.ticks++
				return n, tested, i, oi, err
			}
			pairs = cancelInterval // the checkpoint's pair and those up to the next
		}
		pairs = min(pairs, len(sel)-n)
		// Whole records from slot i to hi, or outer rows oi to to of record i.
		hi, to := i+int32(min(pairs/np, int(end-i))), np
		if oi > 0 || hi == i {
			hi, to = i+1, min(np, oi+pairs)
		}
		m, live := n, int32(0)
		switch {
		case len(pfs) > 0 && to-oi == 1:
			n, tested, live = selectPsi1(sel, n, tested, slots, i, hi, pfs[oi])
		case len(pfs) > 0:
			n, tested, live = selectPsi(sel, n, tested, slots, i, hi, pfs[oi:to])
		case len(probes) > 0 && to-oi == 1:
			n, tested, live = selectOmega1(sel, n, tested, slots, i, hi, probes[oi])
		case len(probes) > 0:
			n, tested, live = selectOmega(sel, n, tested, slots, i, hi, probes[oi:to])
		default:
			n, live = selectKeyless(sel, n, tested, slots, width, i, hi, to-oi)
		}
		for e := m; oi > 0 && e < n; e++ { // a record's rest: its outer rows from oi on
			sel[e].at += uint32(oi) << 16
		}
		ev.ticks += uint32(int(live) * (to - oi))
		if oi == 0 {
			k.streamed += int64(live)
		}
		if to < np {
			oi = to
		} else {
			i, oi = hi, 0
		}
	}
}

// The key-kind loops append to sel, from its nth entry on, the pairs of the
// live slots i to hi with the block's rows, numbered from 0: a pair its key
// test passes, with the key tests made up to it, and each pair of a slot
// whose keys the test cannot take as read. Each returns sel's length, the key
// tests made and the live slots met. A block of one row has loops of its own,
// which keep its key test in registers: over a slice of key tests the loop
// spills its state to the stack on every row.

// selectPsi is the loop of a block of Ψ's prefilters, over keyed slots.
func selectPsi(sel []pairSel, n int, tested int32, slots []byte, i, hi int32, pfs []phonetic.Prefilter) (int, int32, int32) {
	live := int32(0)
	for ; i < hi; i++ {
		keys, ok := keyedSlot(slots, i)
		if !ok {
			continue
		}
		live++
		if !types.SlotSummarized(keys) {
			n = selectPairs(sel, n, tested, i, len(pfs))
			continue
		}
		sum := types.SlotSummary(keys)
		for oi := range pfs {
			tested++
			sel[n] = pairSel{uint32(i) | keyedBit | uint32(oi)<<16, tested}
			n += b2i(!pfs[oi].Rejects(sum))
		}
	}
	return n, tested, live
}

// selectPsi1 is selectPsi over a block of one row.
func selectPsi1(sel []pairSel, n int, tested int32, slots []byte, i, hi int32, pf phonetic.Prefilter) (int, int32, int32) {
	live := int32(0)
	for ; i < hi; i++ {
		keys, ok := keyedSlot(slots, i)
		if !ok {
			continue
		}
		live++
		if !types.SlotSummarized(keys) {
			n = selectPairs(sel, n, tested, i, 1)
			continue
		}
		tested++
		sel[n] = pairSel{uint32(i) | keyedBit, tested}
		n += b2i(!pf.Rejects(types.SlotSummary(keys)))
	}
	return n, tested, live
}

// selectOmega is the loop of a block of Ω's probes, over keyed slots.
func selectOmega(sel []pairSel, n int, tested int32, slots []byte, i, hi int32, probes []*wordnet.Probe) (int, int32, int32) {
	live := int32(0)
	for ; i < hi; i++ {
		keys, ok := keyedSlot(slots, i)
		if !ok {
			continue
		}
		live++
		if !types.SlotHasKeys(keys) {
			n = selectPairs(sel, n, tested, i, len(probes))
			continue
		}
		lang, label := types.SlotOmegaKeys(keys)
		for oi, p := range probes {
			tested++
			sel[n] = pairSel{uint32(i) | keyedBit | uint32(oi)<<16, tested}
			n += b2i(p.PassesLabel(lang, label))
		}
	}
	return n, tested, live
}

// selectOmega1 is selectOmega over a block of one row.
func selectOmega1(sel []pairSel, n int, tested int32, slots []byte, i, hi int32, p *wordnet.Probe) (int, int32, int32) {
	live := int32(0)
	for ; i < hi; i++ {
		keys, ok := keyedSlot(slots, i)
		if !ok {
			continue
		}
		live++
		if !types.SlotHasKeys(keys) {
			n = selectPairs(sel, n, tested, i, 1)
			continue
		}
		tested++
		sel[n] = pairSel{uint32(i) | keyedBit, tested}
		n += b2i(p.PassesLabel(types.SlotOmegaKeys(keys)))
	}
	return n, tested, live
}

// selectKeyless is the loop without key tests, over a block of np rows.
func selectKeyless(sel []pairSel, n int, tested int32, slots []byte, width int, i, hi int32, np int) (int, int32) {
	live := int32(0)
	for ; i < hi; i++ {
		if liveSlot(slots, width, i) {
			n = selectPairs(sel, n, tested, i, np)
			live++
		}
	}
	return n, live
}

// selectPairs appends to sel, from its nth entry on, the pairs of the record
// in slot i with np outer rows, each to be matched in full, with tested key
// tests made before them, and returns the selection's length.
func selectPairs(sel []pairSel, n int, tested, i int32, np int) int {
	for oi := range np {
		sel[n] = pairSel{uint32(i) | uint32(oi)<<16, tested}
		n++
	}
	return n
}

// finish finishes the selection over pg, which began at slot from and outer
// row k.oi and stopped before outer row oi of slot stop: it reads each
// selected record's operand once, finishes a pair its key test passed or
// matches any other (under the empty block every record matches) and
// appends each match to out as scanPage does, the record decoded on its
// first. The record it stopped inside keeps its decoded row and conversion.
// On an error it counts the key tests made up to the pair that failed.
func (k *pageKernel) finish(pg *storage.Page, from, stop, oi int, out *Batch, outer []types.Tuple) error {
	ev, op, preds := k.ev, &k.ev.op, k.preds
	cur, dec := -1, types.Tuple(nil)
	var rec []byte
	for _, r := range k.sel { //lint:gov-exempt selectPage ran the checkpoint for each of these pairs
		var err error
		if slot := int(r.at & (keyedBit - 1)); slot != cur {
			cur, dec = slot, nil
			rec, _ = pg.Record(cur)
			if len(preds) > 0 {
				var slot []byte
				if k.keyed {
					slot, _ = pg.Keys(cur)
				}
				err = op.readRecord(&k.skip, rec, slot, k.hash)
			}
			if cur == from && k.oi > 0 {
				dec, op.conv, op.converted = k.dec, k.conv, k.converted
			}
		}
		match := err == nil
		switch {
		case !match || len(preds) == 0:
		case r.at&keyedBit != 0:
			match, err = preds[r.at>>16].finish(ev, op)
		default:
			match, err = preds[r.at>>16].match(ev, op)
		}
		if match && err == nil && dec == nil {
			dec, _, err = types.DecodeTuple(rec)
		}
		if err != nil {
			ev.count(k.hash, int64(r.tested))
			return err
		}
		if match && outer != nil {
			out.Rows = append(out.Rows, joinedTuple(outer[r.at>>16], dec))
		} else if match {
			out.Rows = append(out.Rows, dec)
		}
	}
	switch {
	case oi == 0:
		k.dec, k.converted = nil, false
	case cur == stop:
		k.dec, k.conv, k.converted = dec, op.conv, op.converted
	}
	k.oi = oi
	return nil
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
