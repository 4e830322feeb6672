package exec

import (
	"time"

	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
)

// Fused Ψ/Ω-scan pipelines. A Filter(Ψ)-over-SeqScan pair — the shape of
// every LexEQUAL selection in the paper's Table 4 — would pay, per row, a
// tuple decode, an expression-tree walk, and (for the common
// materialized-phoneme case) an edit distance that re-splits both strings
// into runes. The fused form compiles the predicate once into a kernel that
// evaluates against the raw encoded record while the heap page is pinned:
// walk to the column's bytes (types.SkipPlan), read the filter keys stored
// with the value (types.ReadStored), and only for a row they let through
// read the phoneme view in place and run a precompiled bounded matcher.
// Whatever depends only on the probe or the schema — the matcher's match
// table, the walk to the column — is computed once, when the kernel is
// compiled. Only survivors are decoded into tuples. Rejected rows therefore
// cost zero allocations — Ψ selectivities in the workloads are a few percent.
//
// Fusion is the compiled form of Filter over SeqScan, chosen by build from
// the bound predicate's shape alone. A kernel applies the statement's
// compiled Ψ/Ω predicate (predicate.go) — the one the generic evaluator
// applies — and only reads its operand differently: a stored UNITEXT value in
// place on the pinned page, any other value decoded. Any shape it cannot handle
// runs as vectorFilterIter over batchScanIter.

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

// predKernel is a fused Ψ or Ω predicate. A stored UNITEXT value is read in
// place on the pinned page (constPred.matchView): its language and filter
// keys at fixed offsets, its text or phoneme only when the keys let the row
// through, so a rejected row costs no view, no decode, no lock and no
// allocation. Any other value is decoded.
type predKernel struct {
	ev   *evaluator
	skip types.SkipPlan
	p    *constPred
	op   operand // the row's, refilled per row
}

func (k *predKernel) matchRec(rec []byte) (bool, error) {
	field, err := k.skip.Seek(rec)
	if err != nil {
		return false, err
	}
	op := &k.op
	ok, err := types.ReadStored(field, &op.StoredUniText)
	if err != nil {
		return false, err
	}
	if ok {
		op.kind, op.viewed = types.KindUniText, false
		if match, done, err := k.p.matchView(k.ev, op); done {
			return match, err
		}
	} else if types.Kind(field[0]) == types.KindUniText {
		return false, errUnkeyed
	}
	// NULL, bare TEXT, a UNITEXT value stored without its phoneme, a kind
	// that is an error: the decoded value.
	v, _, err := types.DecodeValue(field)
	if err != nil {
		return false, err
	}
	return k.p.matchValue(k.ev, v)
}

// fusedScanIter is the fused pipeline: scan a heap page, run the kernel on
// each raw record, decode survivors into the output batch — one loop, no
// operator hops. It attributes its measurements to both the scan and the
// filter plan nodes itself (it IS both operators), so build installs it
// without a stats wrapper. Full wall time is charged to both buckets,
// matching the parent-includes-child convention.
type fusedScanIter struct {
	ev   *evaluator
	src  *recordSource
	kern *predKernel

	scanSt     *OpStats
	filtSt     *OpStats
	timed      bool
	done       bool
	eosCounted bool
}

// buildFusedScan instantiates the fused form of filter node n over its scan
// child; from here on the scan owns the kernel.
func buildFusedScan(env Env, ev *evaluator, n *plan.Node, kern *predKernel) (BatchIter, error) {
	scan := n.Children[0]
	src, err := newRecordSource(env, ev, scan)
	if err != nil {
		return nil, err
	}
	f := &fusedScanIter{ev: ev, src: src, kern: kern}
	if ev.collector != nil {
		f.scanSt = ev.collector.Stats(scan)
		f.filtSt = ev.collector.Stats(n)
		f.timed = ev.collector.timed
	}
	return f, nil
}

func (f *fusedScanIter) NextBatch() (*Batch, error) {
	if f.done {
		f.countEOS()
		return nil, nil
	}
	var start time.Time
	if f.timed {
		start = time.Now()
	}
	b := f.ev.getBatch()
	var scanned, kept int64
	var ferr error
	// One closure per batch, not per page: the reject path must not allocate.
	perRec := func(rec []byte) error {
		if err := f.ev.tick(); err != nil {
			return err
		}
		scanned++
		ok, err := f.kern.matchRec(rec)
		if err != nil || !ok {
			return err
		}
		t, _, err := types.DecodeTuple(rec)
		if err != nil {
			return err
		}
		kept++
		b.Rows = append(b.Rows, t)
		return nil
	}
	for len(b.Rows) < BatchRows {
		more, err := f.src.nextPage(perRec)
		if err != nil {
			ferr = err
			break
		}
		if !more {
			f.done = true
			break
		}
	}
	// One shared-memory write per batch, however many rows it scanned.
	f.ev.publishCounts()
	if f.scanSt != nil {
		f.scanSt.Rows += scanned
		f.scanSt.Nexts += scanned
		f.filtSt.Rows += kept
		f.filtSt.Nexts += kept
		if f.timed {
			el := time.Since(start)
			f.scanSt.Elapsed += el
			f.filtSt.Elapsed += el
		}
	}
	if ferr == nil && len(b.Rows) == 0 {
		f.countEOS()
	}
	return f.ev.finishBatch(b, ferr)
}

// countEOS records the final exhausted pull once, keeping the Nexts = Rows+1
// convention of a full drain.
func (f *fusedScanIter) countEOS() {
	if f.eosCounted || f.scanSt == nil {
		return
	}
	f.eosCounted = true
	f.scanSt.Nexts++
	f.filtSt.Nexts++
}

func (f *fusedScanIter) Close() error { return f.src.Close() }
