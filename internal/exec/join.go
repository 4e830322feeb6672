package exec

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// Hoisted Ψ/Ω joins. A Ψ or Ω nested-loops join whose condition is the
// operator alone, over a column of each side, is the join form of the fused
// scan kernel (fuse.go): what a pass does not change is computed once, and a
// pair costs the kernel's per-row path.
//
//   - The join runs block-major. A block is one outer batch; each of its
//     rows' values is compiled into the constPred a scan's constant compiles
//     to (compile), charged for the block.
//   - The inner side is streamed once per block. A table scan's records are
//     read off the pinned page — under a Gather, from the morsels this worker
//     claims in the block's pass, as a scan's workers claim them; any other
//     input is encoded once into a record buffer (recordBuf) of in-memory
//     pages with the slot keys a heap would give its rows, which each block
//     replays. Both go through one page loop (pairPage).
//   - A page meets the block in two loops, as a page meets the fused scan
//     kernel. selectBlock walks the slot array with the block's key tests —
//     each outer row's Ψ prefilter or Ω probe, gathered by compileBlock — in
//     locals: a record whose slot keys a key test takes as read
//     (types.SlotSummarized for Ψ, types.SlotHasKeys for Ω, under a block
//     whose every row is uniRows) is key-tested in place against every outer
//     row, through the scan's tests (Prefilter.Rejects over
//     types.SlotSummary, Probe.PassesLabel over types.SlotOmegaKeys), and
//     each pair that passes is selected; any other record (TEXT, a phoneme
//     to convert or to match whole, a column other than the keyed one, a
//     block under an IN list or with an outer row that compiles no key test)
//     is selected once for all its outer rows. finishSel then reads each
//     selected record's operand once (operand.readRecord) and finishes each
//     pair its keys passed (constPred.finish: nothing more for an Ω label
//     that passed, which is exact; else only here is a record walked to, by
//     the fast walk or else Seek) or matches each pair of a key-less record
//     (constPred.match), the routines a scan runs. A record every outer
//     row's key test rejects is never read. Its phoneme is converted at most
//     once, and the record decoded on its first match. An Ω join whose inner
//     operand is its table's keyed column, every one of whose records has a
//     label, compiles its outer rows' probes without filters.
//
// A round of selection holds no more pairs than the batch has room for, so
// a batch fills only where a round stops, before a pair: inside a record or
// between two. The rest of the page waits, copied with its keys, in the
// record buffer, and the next batch resumes at the outer row it stopped
// before, keeping the record's decoded row and conversion. The counts, the
// checkpoint's cadence (a tick per pair and per record left to another
// worker) and the first error are a row-at-a-time loop's. The join
// absorbs the inner Materialize and table scan and, under a collector,
// attributes to them itself, as an outer-major join would: the Materialize's
// loops are the outer rows, its rows the inner rows each paired with, the
// scan's rows the records the first block read; both get the inner stream's
// wall time.

// hoistedOperands reports whether join n's condition hoists — a lone Ψ, or a
// lone Ω over a loaded taxonomy, between a column of each side — and the
// column each side's operand is: outerCol of the outer row, innerCol of the
// inner, the outer one the condition's left when outerLeft.
func (ev *evaluator) hoistedOperands(n *plan.Node) (outerCol, innerCol int, outerLeft, ok bool) {
	var l, r plan.Expr
	switch x := n.Cond.(type) {
	case *plan.Psi:
		l, r = x.L, x.R
	case *plan.Omega:
		if ev.taxonomy() == nil {
			return 0, 0, false, false // evalOmega raises the missing-taxonomy error per pair
		}
		l, r = x.L, x.R
	default:
		return 0, 0, false, false
	}
	oc, ook := l.(*plan.ColIdx)
	ic, iok := r.(*plan.ColIdx)
	if !ook || !iok {
		return 0, 0, false, false
	}
	outerLeft = oc.Idx < ic.Idx
	if !outerLeft {
		oc, ic = ic, oc
	}
	width := len(n.Children[0].Schema())
	if oc.Idx < 0 || oc.Idx >= width || ic.Idx < width || ic.Idx >= width+len(n.Children[1].Schema()) {
		return 0, 0, false, false // the per-pair path raises the out-of-range error
	}
	return oc.Idx, ic.Idx - width, outerLeft, true
}

// buildHoistedJoin wires join n, whose condition hoists with the given
// operand columns, as a hoistedJoinIter: the inner side a table scan's
// records when it is a SeqScan, bare or under the plan's Materialize, else
// its input's tuples, encoded.
func buildHoistedJoin(env Env, ev *evaluator, n *plan.Node, outerCol, innerCol int, outerLeft bool, budget *atomic.Int64) (BatchIter, error) {
	outer, err := build(env, ev, n.Children[0], nil)
	if err != nil {
		return nil, err
	}
	j := &hoistedJoinIter{ev: ev, x: n.Cond, outerCol: outerCol, outerLeft: outerLeft, budget: budget, outer: outer,
		innerRows: n.Children[1].EstimatedRows()}
	inner := n.Children[1]
	var mat *plan.Node
	if inner.Op == plan.OpMaterialize {
		mat, inner = inner, inner.Children[0]
	}
	if inner.Op == plan.OpSeqScan {
		j.src, err = newRecordSource(env, ev, inner)
		j.pageFn = j.onPage
	} else {
		j.child, err = build(env, ev, inner, nil)
	}
	if err != nil {
		return nil, errors.Join(err, outer.Close())
	}
	kinds := schemaKinds(inner.Schema())
	// In range: hoistedOperands checked innerCol against the inner schema.
	j.skip, _ = types.NewSkipPlan(kinds, innerCol)
	j.recs.keyed, j.recs.keyBytes = types.KeyedColumn(kinds)
	j.keyed = j.recs.keyed == innerCol
	if _, j.hash = n.Cond.(*plan.Omega); j.hash && j.keyed {
		j.recs.net = ev.taxonomy() // the only labels the join reads
	}
	if ev.collector != nil {
		j.timed = ev.collector.timed
		if mat != nil {
			j.matSt = ev.collector.Stats(mat)
		}
		if j.src != nil {
			j.scanSt = ev.collector.Stats(inner)
		}
	}
	return j, nil
}

// schemaKinds is the column kinds of a schema.
func schemaKinds(cols []plan.ColInfo) []types.Kind {
	kinds := make([]types.Kind, len(cols))
	for i, c := range cols {
		kinds[i] = c.Kind
	}
	return kinds
}

// recordBuf holds records in in-memory pages (storage.NewPage), each slot
// with the keys a heap slot of the inner table carries (the keyed column's,
// types.KeyedColumn, labelled under net: Unlabelled when nil, as for a join
// that reads no label), so that a replay runs the scan's page loop. The
// first used pages hold its records; page and slot are the next record to
// pair. reset empties it and keeps every page's buffers for the records it
// takes next, so that what it retains, and is charged for, only grows.
type recordBuf struct {
	keyed, keyBytes int
	net             *wordnet.Net
	pages           []storage.Page
	used            int
	page, slot      int
	bytes           int64  // what the pages and their buffers retain
	rec, keys       []byte // addTuple's encoding of a row
}

// add appends rec, with its slot keys, to the last used page, or to the next
// one when it does not fit; a row too wide for a page of its own is an error.
func (b *recordBuf) add(rec, keys []byte) error {
	if b.used > 0 && b.addTo(b.used-1, rec, keys) {
		return nil
	}
	if b.used == len(b.pages) {
		c := cap(b.pages)
		b.pages = append(b.pages, storage.NewPage(b.keyBytes))
		b.bytes += int64(cap(b.pages)-c) * int64(unsafe.Sizeof(storage.Page{}))
	} else {
		b.pages[b.used].Reset()
	}
	b.used++
	if !b.addTo(b.used-1, rec, keys) {
		return fmt.Errorf("exec: a join's inner row of %d bytes is too wide to buffer", len(rec))
	}
	return nil
}

// addTo adds rec, with its slot keys, to page i, counting what the page's
// buffers grow by.
func (b *recordBuf) addTo(i int, rec, keys []byte) bool {
	pg := &b.pages[i]
	c := pg.Cap()
	ok := pg.Add(rec, keys)
	b.bytes += int64(pg.Cap() - c)
	return ok
}

// addTuple appends row t as a heap keeps it: its record and slot keys.
func (b *recordBuf) addTuple(t types.Tuple) error {
	b.rec = types.AppendTuple(b.rec[:0], t)
	b.keys = types.AppendSlotKeys(b.keys[:0], t, b.keyed, b.net.LabelOf(t, b.keyed))
	return b.add(b.rec, b.keys)
}

func (b *recordBuf) reset() { b.used, b.page, b.slot = 0, 0, 0 }

// hoistedJoinIter is a Ψ or Ω nested-loops join run hoisted.
type hoistedJoinIter struct {
	ev        *evaluator
	x         plan.Expr // the Ψ or Ω
	outerCol  int
	outerLeft bool
	budget    *atomic.Int64
	outer     BatchIter
	innerRows float64 // the inner side's estimated rows, the bound on an Ω probe's filters
	// The inner input: a table scan's records (src) or an operator (child),
	// whose records recs holds for every block to replay. For a scan, recs
	// holds the rest of a page a batch filled inside.
	src    *recordSource
	pageFn func(pg storage.Page) error // onPage, bound once
	child  BatchIter
	recs   recordBuf
	skip   types.SkipPlan // the walk to the inner operand
	keyed  bool           // the inner operand is the inner table's keyed column
	hash   bool           // Ω: an operand read without slot keys needs its text's hash

	// Under a collector: what the join attributes to the inner Materialize
	// (nil when there is none) and table scan (nil when the inner is no scan).
	matSt, scanSt *OpStats
	timed         bool

	// The block: one outer batch, its rows' operands compiled on its first
	// inner record — with their key tests when every row has one
	// (compileBlock) — and how many inner records it has begun to pair.
	ob       *Batch
	preds    []*constPred
	pfs      []phonetic.Prefilter // Ψ: each row's prefilter
	probes   []*wordnet.Probe     // Ω: each row's probe
	pbytes   int64                // preds' charge
	blocks   int
	streamed int64
	sel      []pairSel // a page's selection, reused page after page
	// The inner record being paired: the outer row it pairs next, its
	// decoded row once it matched, and its operand's conversion, which a
	// batch that fills inside the record keeps for the next.
	oi        int
	dec       types.Tuple
	conv      string
	converted bool
	bytes     int64 // what recs charged to the query
	// The batch being filled and the rows it may take.
	out   *Batch
	limit int
	done  bool
}

func (j *hoistedJoinIter) NextBatch() (*Batch, error) {
	if j.done {
		return nil, nil
	}
	out := j.ev.getBatch()
	j.out, j.limit = out, batchLimit(j.budget)
	err := j.fill()
	j.out = nil
	return j.ev.finishBatch(out, err)
}

// fill joins blocks of outer rows with the inner side until the batch holds
// its limit or the outer side is exhausted.
func (j *hoistedJoinIter) fill() error {
	for !j.full() {
		if j.ob == nil {
			if err := j.nextBlock(); err != nil || j.done {
				return err
			}
		}
		var start time.Time
		if j.timed {
			start = time.Now()
		}
		more, err := j.stream()
		if j.timed {
			el := time.Since(start)
			for _, st := range [...]*OpStats{j.scanSt, j.matSt} {
				if st != nil {
					st.Elapsed += el
				}
			}
		}
		if err != nil {
			return err
		}
		if !more {
			j.endBlock()
		}
	}
	return nil
}

func (j *hoistedJoinIter) full() bool { return len(j.out.Rows) >= j.limit }

// nextBlock takes the next outer batch as the block and starts the inner
// side's pass for it: for a scan, the table's next pass; for any other
// input, a replay of its records, read in on the first block.
func (j *hoistedJoinIter) nextBlock() error {
	var err error
	if j.ob, err = j.outer.NextBatch(); err != nil || j.ob == nil {
		j.done = err == nil
		return err
	}
	j.blocks++
	switch {
	case j.blocks > 1 && j.src != nil:
		return j.src.rewind()
	case j.blocks > 1:
		j.recs.page, j.recs.slot = 0, 0
	case j.child != nil:
		return j.ev.drainRows(j.child, func(t types.Tuple) error {
			if err := j.recs.addTuple(t); err != nil {
				return err
			}
			return j.charge()
		})
	}
	return nil
}

// stream pairs the block with its next inner records: those recs holds from
// its position on, then, for a scan, the next page. more=false when the
// block's pass over the inner side is over.
func (j *hoistedJoinIter) stream() (more bool, err error) {
	for b := &j.recs; b.page < b.used; b.page, b.slot = b.page+1, 0 {
		pg := &b.pages[b.page]
		if b.slot, err = j.pairPage(pg, b.slot, nil); err != nil || b.slot < pg.Len() {
			return true, err
		}
	}
	if j.src == nil {
		return false, nil
	}
	j.recs.reset()
	if more, err = j.src.nextPage(j.pageFn); err == nil {
		err = j.charge()
	}
	return more, err
}

// onPage pairs the records of a scan's page with the block.
func (j *hoistedJoinIter) onPage(pg storage.Page) error {
	_, err := j.pairPage(&pg, 0, j.src)
	return err
}

// pairSel is an entry of a block's selection over an inner page: the
// record in slot with the outer rows from oi up to end — one pair the key
// test passed (keyed), or the pairs of a key-less slot, each matched in
// full — and the key tests made up to it: the count when its finish fails.
type pairSel struct {
	selRow
	oi, end int32
	keyed   bool
}

// pairPage pairs the live records of pg from slot from on — the record
// there from outer row j.oi on — with the block, and returns the slot of the
// record the batch filled inside, pg.Len() when it paired them all. Each
// round selects (selectBlock) no more pairs than the batch has room for
// matches, then finishes them (finishSel). src is the scan the page came
// from, which may leave a record to another worker (recordSource.skip); nil
// for a page of recs, whose records passed it when they were copied. A
// scan's records from the one the batch filled inside on wait in recs,
// copied with their keys.
func (j *hoistedJoinIter) pairPage(pg *storage.Page, from int, src *recordSource) (stop int, err error) {
	n := pg.Len()
	for stop = from; stop < n && !j.full(); {
		next, oi, tested, serr := j.selectBlock(pg, stop, src, j.limit-len(j.out.Rows))
		if err = j.finishSel(pg, stop, next, oi); err == nil {
			j.ev.count(j.hash, int64(tested))
			err = serr
		}
		if err == nil && len(j.preds) == 0 && next < n {
			err = j.compileBlock() // the block's first record is next
		}
		if err != nil {
			return next, err
		}
		stop = next
	}
	if stop == n || src == nil {
		return stop, nil
	}
	for i := stop; i < n; i++ {
		keys, live := pg.Keys(i)
		if !live {
			continue
		}
		// The record the batch filled inside is this worker's: its
		// ordinal was taken when it was selected.
		if (i > stop || j.oi == 0) && src.skip() {
			if err := j.ev.tick(); err != nil {
				return i, err
			}
			continue
		}
		rec, _ := pg.Record(i)
		if err := j.recs.add(rec, keys); err != nil {
			return i, err
		}
	}
	return stop, nil
}

// selectBlock selects pairs of the live records of pg in src's share, from
// the one in slot from and outer row j.oi on, with the block: each pair of a
// record whose keys a key test takes as read that its outer row's key test
// passes, and each pair of any other record, which it cannot test.
// It keeps the tick count, the ordinal and the block's key tests in locals.
// It stops before a pair when the selection holds room pairs to match, so
// that finishing them cannot overfill the batch, and before the block's
// first record when the block is not compiled yet. It returns the slot and
// outer row it stopped before — outer row 0 of a record it has not begun —
// the key tests it made and the checkpoint's error, which stops it at its
// pair.
func (j *hoistedJoinIter) selectBlock(pg *storage.Page, from int, src *recordSource, room int) (stop, stopOi int, tested int32, err error) {
	slots, width := pg.Slots()
	j.sel = j.sel[:0]
	ev, omega := j.ev, j.hash
	pfs, probes, np := j.pfs, j.probes, len(j.preds)
	keyable := len(pfs) > 0 || len(probes) > 0 // every row's predicate takes a slot's keys as read
	ticks, streamed, cand := ev.ticks, j.streamed, 0
	var n, mod, idx int64
	if src != nil {
		n, mod, idx = src.n, src.mod, src.idx
	}
	i, oi := from, j.oi
slots:
	for end := pg.Len(); i < end; i, oi = i+1, 0 {
		if cand >= room {
			break
		}
		keys, live := storage.SlotKeys(slots[i*width : (i+1)*width])
		if oi == 0 {
			if !live {
				continue
			}
			if mod != 0 && n%mod != idx {
				n++
				if ticks++; ticks%cancelInterval == 0 {
					if err = ev.res.Err(); err != nil {
						break
					}
				}
				continue
			}
			if np == 0 {
				break // the block's first record: pairPage compiles the block
			}
			if mod != 0 {
				n++
			}
			streamed++
		}
		if keyable && (omega && types.SlotHasKeys(keys) || !omega && types.SlotSummarized(keys)) {
			for ; oi < np; oi++ {
				if ticks++; ticks%cancelInterval == 0 {
					if err = ev.res.Err(); err != nil {
						break slots
					}
				}
				if tested++; omega && probes[oi].PassesLabel(types.SlotOmegaKeys(keys)) || !omega && !pfs[oi].Rejects(types.SlotSummary(keys)) {
					j.sel = append(j.sel, pairSel{selRow{int32(i), tested}, int32(oi), int32(oi + 1), true})
					if cand++; cand >= room && oi+1 < np {
						oi++
						break slots
					}
				}
			}
			continue
		}
		// A key-less record: its pairs up to the room are each matched.
		e := pairSel{selRow{int32(i), tested}, int32(oi), int32(min(np, oi+room-cand)), false}
		for ; oi < int(e.end); oi++ {
			if ticks++; ticks%cancelInterval == 0 {
				if err = ev.res.Err(); err != nil {
					e.end = int32(oi)
					break
				}
			}
		}
		j.sel = append(j.sel, e)
		if cand += int(e.end - e.oi); err != nil || oi < np {
			break
		}
	}
	ev.ticks, j.streamed = ticks, streamed
	if src != nil {
		src.n = n
	}
	return i, oi, tested, err
}

// finishSel finishes the block's selection over pg, which began at slot from
// and outer row j.oi and stopped before outer row oi of slot stop: it reads
// each selected record's operand once (operand.readRecord), finishes each
// pair its keys passed — for an Ω label that passed, which is exact, without
// reading the record — and matches each pair of a key-less record, and joins
// every match to its outer row, the record decoded on its first. The record
// it stopped inside keeps its decoded row and its operand's conversion for
// the pairs left. On an error it counts the key tests made up to the pair
// that failed.
func (j *hoistedJoinIter) finishSel(pg *storage.Page, from, stop, oi int) error {
	ev, op, out := j.ev, &j.ev.op, j.out
	cur, dec := int32(-1), types.Tuple(nil)
	var rec []byte
	for _, r := range j.sel { //lint:gov-exempt selectBlock ran the checkpoint for each of these pairs
		if r.slot != cur {
			cur = r.slot
			var slot []byte
			if j.keyed {
				slot, _ = pg.Keys(int(cur))
			}
			rec, _ = pg.Record(int(cur))
			if err := op.readRecord(&j.skip, rec, slot, j.hash); err != nil {
				ev.count(j.hash, int64(r.tested))
				return err
			}
			dec = nil
			if int(cur) == from && j.oi > 0 {
				dec, op.conv, op.converted = j.dec, j.conv, j.converted
			}
		}
		for o := r.oi; o < r.end; o++ {
			var match bool
			var err error
			if r.keyed {
				match, err = j.preds[o].finish(ev, op)
			} else {
				match, err = j.preds[o].match(ev, op)
			}
			if match && err == nil && dec == nil {
				dec, _, err = types.DecodeTuple(rec)
			}
			if err != nil {
				ev.count(j.hash, int64(r.tested))
				return err
			}
			if match {
				out.Rows = append(out.Rows, joinedTuple(j.ob.Rows[o], dec))
			}
		}
	}
	switch {
	case oi == 0:
		j.dec, j.converted = nil, false
	case int(cur) == stop:
		j.dec, j.conv, j.converted = dec, op.conv, op.converted
	}
	j.oi = oi
	return nil
}

// compileBlock compiles each outer row of the block into the constPred a
// scan's constant compiles to, charged until the block ends, and, when every
// row's predicate takes a keyed operand's slot keys as read (uniRows), their
// key tests for selectBlock: Ψ's prefilters or Ω's probes.
func (j *hoistedJoinIter) compileBlock() error {
	keyable, rows := j.keyed, j.innerRows
	if j.keyed {
		rows = 0 // every inner operand has a label: Ω's probes need no filter
	}
	for _, o := range j.ob.Rows {
		if err := j.ev.tick(); err != nil {
			return err
		}
		p := j.ev.compile(j.x, j.outerLeft, o[j.outerCol], nil, rows)
		j.preds = append(j.preds, p)
		keyable = keyable && p.uniRows
		if n := p.memBytes(); n > 0 {
			j.pbytes += n
			if err := j.ev.grow(n); err != nil {
				return err
			}
		}
	}
	for _, p := range j.preds {
		if !keyable {
			break
		}
		if j.hash {
			j.probes = append(j.probes, p.probe)
		} else {
			j.pfs = append(j.pfs, p.m.Prefilter)
		}
	}
	return nil
}

// charge brings the query's charge up to what recs holds. It is recorded
// before it is checked: Grow counts even a failing charge, and Close
// releases it.
func (j *hoistedJoinIter) charge() error {
	n := j.recs.bytes - j.bytes
	if n == 0 {
		return nil
	}
	j.bytes += n
	return j.ev.grow(n)
}

// endBlock drops the block's compiled operands and releases their charge.
// The Materialize is credited what one pass per outer row would have read,
// and the scan the records the first block read, as if read once.
func (j *hoistedJoinIter) endBlock() {
	j.ev.release(j.pbytes)
	clear(j.preds)
	clear(j.probes)
	j.preds, j.pfs, j.probes, j.pbytes = j.preds[:0], j.pfs[:0], j.probes[:0], 0
	outer := int64(len(j.ob.Rows))
	if j.matSt != nil {
		j.matSt.Loops += outer
		if j.blocks == 1 {
			j.matSt.Loops--
		}
		j.matSt.Rows += outer * j.streamed
	}
	if j.scanSt != nil && j.blocks == 1 {
		j.scanSt.Rows += j.streamed
	}
	j.streamed = 0
	j.ev.putBatch(j.ob)
	j.ob = nil
}

func (j *hoistedJoinIter) Close() error {
	if j.ob != nil {
		j.endBlock()
	}
	j.ev.release(j.bytes)
	j.recs, j.bytes = recordBuf{}, 0
	err := j.outer.Close()
	if j.src != nil {
		return errors.Join(err, j.src.Close())
	}
	return errors.Join(err, j.child.Close())
}
