package exec

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/mural-db/mural/internal/invariant"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// Hoisted Ψ/Ω joins. A Ψ or Ω nested-loops join whose condition is the
// operator alone, over a column of each side, runs block-major through the
// page kernel (fuse.go): a block is one outer batch, whose rows compile to
// the block's predicates (compileBlock) on its first inner page, and the
// inner side is streamed once per block through one page loop (pairPage): a
// table scan's pages — under a Gather, the morsels this worker claims in the
// block's pass — or, for any other input, a record buffer (recordBuf) of
// in-memory pages with the slot keys a heap would give its rows, encoded
// once and replayed by every block. When a batch fills inside a scan's page,
// the rest of the page waits in the record buffer. Under a collector the join
// attributes to the inner Materialize and scan it absorbs, as an outer-major
// join would: the Materialize's loops are the outer rows, its rows the inner
// rows each paired with, the scan's rows the records the first block read;
// both get the inner stream's wall time.

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
	j.k.ev = ev
	// In range: hoistedOperands checked innerCol against the inner schema.
	j.k.skip, _ = types.NewSkipPlan(kinds, innerCol)
	j.recs.keyed, j.recs.keyBytes = types.KeyedColumn(kinds)
	j.k.keyed = j.recs.keyed == innerCol
	if _, j.k.hash = n.Cond.(*plan.Omega); j.k.hash && j.k.keyed {
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
	k      pageKernel // over the inner operand, with the block's predicates

	// Under a collector: what the join attributes to the inner Materialize
	// (nil when there is none) and table scan (nil when the inner is no scan).
	matSt, scanSt *OpStats
	timed         bool

	// The block: one outer batch, and its predicates' charge.
	ob     *Batch
	pbytes int64
	blocks int
	bytes  int64 // what recs charged to the query
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
	for len(j.out.Rows) < j.limit {
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

// pairPage pairs the live records of pg from slot from on with the block,
// compiled first on its first page, and returns the slot the batch filled
// inside, pg.Len() when it paired them all. src is the scan the page came
// from, nil for a page of recs; a scan's records from the one the batch
// filled inside on wait in recs, copied with their keys, except those it
// leaves to another worker (recordSource.skip).
func (j *hoistedJoinIter) pairPage(pg *storage.Page, from int, src *recordSource) (int, error) {
	n := pg.Len()
	if len(j.k.preds) == 0 && from < n {
		if err := j.compileBlock(); err != nil {
			return from, err
		}
	}
	stop, err := j.k.scanPage(pg, from, src, j.out, j.ob.Rows, j.limit)
	if err != nil || stop == n || src == nil {
		return stop, err
	}
	for i := stop; i < n; i++ {
		keys, live := pg.Keys(i)
		if !live {
			continue
		}
		// The record the batch filled inside is this worker's: its
		// ordinal was taken when it was selected.
		if (i > stop || j.k.oi == 0) && src.skip() {
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

// compileBlock compiles each outer row of the block into the constPred a
// scan's constant compiles to, charged until the block ends, and gathers
// their key tests (pageKernel.keyTests).
func (j *hoistedJoinIter) compileBlock() error {
	rows := j.innerRows
	if j.k.keyed {
		rows = 0 // every inner operand has a label: Ω's probes need no filter
	}
	invariant.Assertf(len(j.ob.Rows) <= math.MaxUint16, "exec: an outer block of %d rows", len(j.ob.Rows))
	for _, o := range j.ob.Rows {
		if err := j.ev.tick(); err != nil {
			return err
		}
		p := j.ev.compile(j.x, j.outerLeft, o[j.outerCol], nil, rows)
		j.k.preds = append(j.k.preds, p)
		if n := p.memBytes(); n > 0 {
			j.pbytes += n
			if err := j.ev.grow(n); err != nil {
				return err
			}
		}
	}
	j.k.keyTests()
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
	k := &j.k
	j.ev.release(j.pbytes)
	clear(k.preds)
	clear(k.probes)
	k.preds, k.pfs, k.probes, j.pbytes = k.preds[:0], k.pfs[:0], k.probes[:0], 0
	outer := int64(len(j.ob.Rows))
	if j.matSt != nil {
		j.matSt.Loops += outer
		if j.blocks == 1 {
			j.matSt.Loops--
		}
		j.matSt.Rows += outer * k.streamed
	}
	if j.scanSt != nil && j.blocks == 1 {
		j.scanSt.Rows += k.streamed
	}
	k.streamed = 0
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
