package exec

import (
	"errors"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
)

// Hoisted Ψ/Ω joins. A Ψ or Ω nested-loops join whose condition is the
// operator alone, over a column of each side, is the join form of the fused
// scan kernel (fuse.go): what a pass does not change is computed once, and a
// pair costs the kernel's per-row path.
//
//   - The inner side is read once per statement into one arena of encoded
//     records (innerRecords). A table scan's records are copied off the
//     pinned page — under a Gather, this worker's fixed share of the pages
//     (recordSource.fixShare), read once, so every pass sees the same rows
//     and the workers' pair loops are equal whatever their start; any other
//     input's tuples are encoded into the same arena. Beside each record the
//     load notes where its operand lies (innerRow): kind, language, text and
//     phoneme.
//   - Each pass compiles its outer row's value into the constPred a scan's
//     constant compiles to (compile), charged for that pass only.
//   - A pair reads the inner operand as views on the arena (matchOperand, the
//     kernel's matchView); only a match decodes its inner record and builds
//     the joined row.
//
// The join absorbs the inner Materialize and table scan and, under a
// collector, attributes to them itself, as fusedScanIter does: the
// Materialize's loops are the passes, its rows the inner rows the passes
// read, the scan's rows the records loaded; both get the load's wall time.

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
	j := &hoistedJoinIter{ev: ev, x: n.Cond, outerCol: outerCol, outerLeft: outerLeft, budget: budget, outer: outer}
	inner := n.Children[1]
	var mat *plan.Node
	if inner.Op == plan.OpMaterialize {
		mat, inner = inner, inner.Children[0]
	}
	if inner.Op == plan.OpSeqScan {
		j.src, err = newRecordSource(env, ev, inner)
	} else {
		j.child, err = build(env, ev, inner, nil)
	}
	if err != nil {
		return nil, errors.Join(err, outer.Close())
	}
	// In range: hoistedOperands checked innerCol against the inner schema.
	j.in.skip, _ = types.NewSkipPlan(schemaKinds(inner.Schema()), innerCol)
	j.in.textLang = textLang(n.Cond)
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

// innerRecords is a hoisted join's inner side: its rows' encoded records back
// to back in one arena, and per row where its record and operand lie. conv
// holds the phonemes converted for operands that have none stored; bytes is
// what the three charged to the query, held to Close.
type innerRecords struct {
	skip     types.SkipPlan // the walk to the operand column
	textLang types.LangID   // the language a bare TEXT operand is read in
	arena    []byte
	rows     []innerRow
	conv     []byte
	bytes    int64
}

// innerRow locates one inner row: its record's offset in the arena and its
// operand — the kind and, for text, the language and the text and phoneme as
// offsets into the arena, the phoneme into conv once converted.
type innerRow struct {
	rec           uint32
	text, textLen uint32
	ph, phLen     uint32
	lang          types.LangID
	kind          types.Kind
	conv          bool
}

// innerRowBytes is the size of an innerRow, what a row's entry is charged.
const innerRowBytes = 24

var errInnerTooLarge = errors.New("exec: a join's inner side exceeds 4 GiB")

// add copies rec, an inner row's encoded record, into the arena and indexes it.
func (in *innerRecords) add(rec []byte) error {
	base := len(in.arena)
	in.arena = append(in.arena, rec...)
	return in.index(base)
}

// index notes where the operand of the record at arena offset base lies.
func (in *innerRecords) index(base int) error {
	if uint64(len(in.arena)) > math.MaxUint32 {
		return errInnerTooLarge
	}
	field, err := in.skip.Seek(in.arena[base:])
	if err != nil {
		return err
	}
	r := innerRow{rec: uint32(base), kind: types.Kind(field[0])}
	var text, ph []byte
	switch r.kind {
	case types.KindUniText:
		r.lang, text, ph, err = types.UniTextViews(field)
	case types.KindText:
		r.lang = in.textLang
		text, err = types.TextView(field)
	}
	if err != nil {
		return err
	}
	if len(text) > 0 {
		r.text, r.textLen = in.offset(text), uint32(len(text))
	}
	if len(ph) > 0 {
		r.ph, r.phLen = in.offset(ph), uint32(len(ph))
	}
	in.rows = append(in.rows, r)
	return nil
}

// offset is where v, a view on the arena, begins in it.
func (in *innerRecords) offset(v []byte) uint32 { return uint32(cap(in.arena) - cap(v)) }

// text and phoneme are views on r's operand.
func (in *innerRecords) text(r *innerRow) []byte { return in.arena[r.text : r.text+r.textLen] }

func (in *innerRecords) phoneme(r *innerRow) []byte {
	if r.conv {
		return in.conv[r.ph : r.ph+r.phLen]
	}
	return in.arena[r.ph : r.ph+r.phLen]
}

// convert converts r's operand, stored without a phoneme, into conv: once
// per row and statement, on the first pair that needs it.
func (in *innerRecords) convert(ev *evaluator, r *innerRow) error {
	ph := ev.convert(types.Compose(string(in.text(r)), r.lang))
	if uint64(len(in.conv)+len(ph)) > math.MaxUint32 {
		return errInnerTooLarge
	}
	r.ph, r.phLen, r.conv = uint32(len(in.conv)), uint32(len(ph)), true
	in.conv = append(in.conv, ph...)
	return in.charge(ev)
}

// presize grows the arena and the row array, which hold one page, to hold
// pages pages like it, plus an eighth: the load then copies the first page
// once instead of copying what it has at every doubling.
func (in *innerRecords) presize(pages int64) {
	more := max(int(pages*9/8)-1, 0)
	in.arena = slices.Grow(in.arena, len(in.arena)*more)
	in.rows = slices.Grow(in.rows, len(in.rows)*more)
}

// charge brings the query's charge up to what the arena, conv and the row
// array hold. It is recorded before it is checked: Grow counts even a
// failing charge, and Close releases it.
func (in *innerRecords) charge(ev *evaluator) error {
	n := int64(cap(in.arena)+cap(in.conv)) + int64(cap(in.rows))*innerRowBytes - in.bytes
	in.bytes += n
	return ev.grow(n)
}

// hoistedJoinIter is a Ψ or Ω nested-loops join run hoisted.
type hoistedJoinIter struct {
	ev        *evaluator
	x         plan.Expr // the Ψ or Ω
	outerCol  int
	outerLeft bool
	budget    *atomic.Int64
	outer     BatchIter
	// The inner input: a table scan's records (src) or an operator (child).
	src   *recordSource
	child BatchIter
	in    innerRecords

	// Under a collector: what the join attributes to the inner Materialize
	// (nil when there is none) and table scan (nil when the inner is no scan).
	matSt, scanSt *OpStats
	timed         bool

	ob     *Batch     // outer batch being joined
	oi     int        // current outer row in ob
	p      *constPred // the current outer row's operand, compiled for its pass
	pbytes int64      // p's charge
	ri     int        // next inner row of the pass
	inPass bool       // the current outer row's pass has begun
	loaded bool
	done   bool
}

func (j *hoistedJoinIter) NextBatch() (*Batch, error) {
	if j.done {
		return nil, nil
	}
	out := j.ev.getBatch()
	return j.ev.finishBatch(out, j.fill(out, batchLimit(j.budget)))
}

// fill joins outer rows against the inner side until out holds limit rows or
// the outer side is exhausted.
func (j *hoistedJoinIter) fill(out *Batch, limit int) error {
	for len(out.Rows) < limit {
		if err := j.ev.tick(); err != nil {
			return err
		}
		if j.ob == nil || j.oi >= len(j.ob.Rows) {
			j.ev.putBatch(j.ob)
			var err error
			if j.ob, err = j.outer.NextBatch(); err != nil {
				return err
			}
			j.oi = 0
			if j.ob == nil {
				j.done = true
				return nil
			}
		}
		o := j.ob.Rows[j.oi]
		if !j.inPass {
			if err := j.beginPass(o); err != nil {
				return err
			}
		}
		rows := j.in.rows
		for ; j.ri < len(rows) && len(out.Rows) < limit; j.ri++ {
			if err := j.ev.tick(); err != nil {
				return err
			}
			r := &rows[j.ri]
			if ok, err := j.match(r); !ok {
				if err != nil {
					return err
				}
				continue
			}
			in, _, err := types.DecodeTuple(j.in.arena[r.rec:])
			if err != nil {
				return err
			}
			out.Rows = append(out.Rows, joinedTuple(o, in))
		}
		if j.ri == len(rows) {
			j.endPass(true)
			j.oi++
		}
	}
	return nil
}

// beginPass starts outer row o's pass over the inner side, reading that in on
// the first pass, and compiles o's operand unless there is no inner row to
// match it with.
func (j *hoistedJoinIter) beginPass(o types.Tuple) error {
	if !j.loaded {
		j.loaded = true
		if err := j.load(); err != nil {
			return err
		}
	} else if j.matSt != nil {
		j.matSt.Loops++
	}
	j.inPass, j.ri = true, 0
	if len(j.in.rows) == 0 {
		return nil
	}
	j.p = j.ev.compile(j.x, j.outerLeft, o[j.outerCol], nil, float64(len(j.in.rows)))
	j.pbytes = j.p.memBytes()
	return j.ev.grow(j.pbytes)
}

// endPass drops the pass's compiled operand and releases its charge; the
// Materialize is credited the rows the pass read, and its exhausted pull when
// the pass ran to the end.
func (j *hoistedJoinIter) endPass(exhausted bool) {
	j.ev.release(j.pbytes)
	j.p, j.pbytes, j.inPass = nil, 0, false
	if j.matSt != nil {
		j.matSt.Rows += int64(j.ri)
		j.matSt.Nexts += int64(j.ri)
		if exhausted {
			j.matSt.Nexts++
		}
	}
}

// match applies the pass's compiled operand to inner row r.
func (j *hoistedJoinIter) match(r *innerRow) (bool, error) {
	match, done, err := j.p.matchOperand(j.ev, r.kind, r.lang, j.in.text(r), j.in.phoneme(r))
	if done {
		return match, err
	}
	if !r.conv {
		if err := j.in.convert(j.ev, r); err != nil {
			return false, err
		}
	}
	return j.p.matchConverted(j.ev, j.in.phoneme(r)), nil
}

// load reads the inner side into the arena.
func (j *hoistedJoinIter) load() error {
	var start time.Time
	if j.timed {
		start = time.Now()
	}
	var err error
	if j.src != nil {
		err = j.loadRecords()
	} else {
		err = j.ev.drainRows(j.child, func(t types.Tuple) error {
			base := len(j.in.arena)
			j.in.arena = types.AppendTuple(j.in.arena, t)
			if err := j.in.index(base); err != nil {
				return err
			}
			return j.in.charge(j.ev)
		})
	}
	if j.scanSt != nil && err == nil {
		n := int64(len(j.in.rows))
		j.scanSt.Rows += n
		j.scanSt.Nexts += n + 1
	}
	if j.timed {
		el := time.Since(start)
		if j.scanSt != nil {
			j.scanSt.Elapsed += el
		}
		if j.matSt != nil {
			j.matSt.Elapsed += el
		}
	}
	return err
}

// loadRecords copies the scan's records into the arena page by page, sizing
// the arena after the first page for the pages the scan reads.
func (j *hoistedJoinIter) loadRecords() error {
	pages := j.src.fixShare()
	perRec := func(rec []byte) error {
		if err := j.ev.tick(); err != nil {
			return err
		}
		return j.in.add(rec)
	}
	for page := int64(1); ; page++ {
		more, err := j.src.nextPage(perRec)
		if err != nil || !more {
			return err
		}
		if page == 1 {
			j.in.presize(pages)
		}
		if err := j.in.charge(j.ev); err != nil {
			return err
		}
	}
}

func (j *hoistedJoinIter) Close() error {
	j.ev.putBatch(j.ob)
	j.ob = nil
	if j.inPass {
		j.endPass(false)
	}
	j.ev.release(j.in.bytes)
	j.in.arena, j.in.rows, j.in.conv, j.in.bytes = nil, nil, nil, 0
	err := j.outer.Close()
	if j.src != nil {
		return errors.Join(err, j.src.Close())
	}
	return errors.Join(err, j.child.Close())
}
