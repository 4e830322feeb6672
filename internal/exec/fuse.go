package exec

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// Fused Ψ/Ω-scan pipelines. A Filter(Ψ)-over-SeqScan pair — the shape of
// every LexEQUAL selection in the paper's Table 4 — would pay, per row, a
// tuple decode, an expression-tree walk, and (for the common
// materialized-phoneme case) an edit distance that re-splits both strings
// into runes. The fused form compiles the predicate once into a
// kernel that evaluates against the raw encoded record while the heap page
// is pinned: walk to the column's bytes (types.SkipPlan), read the phoneme
// view in place, and run a precompiled bounded matcher. Whatever depends only
// on the probe or the schema — the matcher's match table, the walk to the
// column — is computed once, when the kernel is compiled. Only
// survivors are decoded into tuples. Rejected rows therefore cost zero
// allocations — Ψ selectivities in the workloads are a few percent.
//
// Fusion is the compiled form of Filter over SeqScan, chosen by build from
// the predicate's shape alone: the kernels reproduce the generic evaluator's
// semantics bit-for-bit (operand-kind errors, NULL handling, IN-langs
// admission, statement-statistics counting), and any shape they cannot
// handle runs as vectorFilterIter over batchScanIter, which surfaces
// identical errors and is the reference the kernels are tested against.

// fusedCond is a compiled predicate evaluated against a raw encoded record.
// close releases what compiling it charged to the query.
type fusedCond interface {
	matchRec(rec []byte) (bool, error)
	close()
}

// constFalseKernel rejects every row: the compiled form of a predicate with
// a NULL or language-inadmissible probe, which the generic evaluator also
// fails without counting an evaluation.
type constFalseKernel struct{}

func (constFalseKernel) matchRec([]byte) (bool, error) { return false, nil }
func (constFalseKernel) close()                        {}

// colAndConst splits a binary predicate into its column side and its
// (expected-constant) probe side. ok=false when neither or both sides are
// column references — join conditions are not fusible.
func colAndConst(l, r plan.Expr) (col int, probe plan.Expr, colIsLeft, ok bool) {
	lc, lok := l.(*plan.ColIdx)
	rc, rok := r.(*plan.ColIdx)
	switch {
	case lok && !rok:
		return lc.Idx, r, true, true
	case rok && !lok:
		return rc.Idx, l, false, true
	}
	return 0, nil, false, false
}

// compileFused compiles a filter condition over a scan node into a record
// kernel, or nil when the shape is not fusible (the generic path then runs it
// unchanged). The error is a governance failure: a compiled operand the
// query's memory budget cannot hold.
func (ev *evaluator) compileFused(cond plan.Expr, scan *plan.Node) (fusedCond, error) {
	switch x := cond.(type) {
	case *plan.Psi:
		return ev.compileFusedPsi(x, scan.Schema()), nil
	case *plan.Omega:
		return ev.compileFusedOmega(x, scan)
	}
	return nil, nil
}

// skipTo compiles the walk to column col of a record of the scanned table.
// ok=false for a column the scan does not produce: the generic path raises
// the out-of-range error.
func skipTo(cols []plan.ColInfo, col int) (types.SkipPlan, bool) {
	kinds := make([]types.Kind, len(cols))
	for i, c := range cols {
		kinds[i] = c.Kind
	}
	return types.NewSkipPlan(kinds, col)
}

func (ev *evaluator) compileFusedPsi(x *plan.Psi, cols []plan.ColInfo) fusedCond {
	col, probeExpr, colIsLeft, ok := colAndConst(x.L, x.R)
	if !ok {
		return nil
	}
	skip, ok := skipTo(cols, col)
	if !ok {
		return nil
	}
	pv, err := ev.eval(probeExpr, nil)
	if err != nil {
		// Not a constant probe (or an erroring expression): the generic path
		// evaluates it, and surfaces its error, per row.
		return nil
	}
	if pv.IsNull() {
		return constFalseKernel{}
	}
	pph, plang, okp := ev.psiOperand(pv, x.Langs)
	if !okp {
		// Non-text probe: leave it to the generic path so the operand-kind
		// error carries evalPsi's exact message.
		return nil
	}
	if pv.Kind() == types.KindUniText && !langAdmitted(plang, x.Langs) {
		return constFalseKernel{}
	}
	return &psiKernel{
		ev:        ev,
		skip:      skip,
		langs:     x.Langs,
		m:         phonetic.NewBoundedMatcher(pph, x.Threshold),
		probeKind: pv.Kind(),
		colIsLeft: colIsLeft,
	}
}

// psiKernel is a fused Ψ predicate: probe phoneme precompiled into a bounded
// edit-distance matcher, column side read as raw views off the pinned page.
type psiKernel struct {
	ev        *evaluator
	skip      types.SkipPlan
	langs     []types.LangID
	m         *phonetic.BoundedMatcher
	probeKind types.Kind
	colIsLeft bool
}

func (k *psiKernel) close() {}

// operandErr reproduces evalPsi's and evalOmega's kind error, naming the
// operands in their original left/right order.
func operandErr(op string, colKind, probeKind types.Kind, colIsLeft bool) error {
	if !colIsLeft {
		colKind, probeKind = probeKind, colKind
	}
	return fmt.Errorf("exec: %s operands must be text, got %s and %s", op, colKind, probeKind)
}

// matchRec counts an evaluation (evaluator.countPsi, as evalPsi does) for
// every row that reaches the matcher, whether the matcher then rejects it on
// length alone or runs the full distance computation.
func (k *psiKernel) matchRec(rec []byte) (bool, error) {
	field, err := k.skip.Seek(rec)
	if err != nil {
		return false, err
	}
	switch types.Kind(field[0]) {
	case types.KindNull:
		return false, nil
	case types.KindUniText:
		lang, _, ph, err := types.UniTextViews(field)
		if err != nil {
			return false, err
		}
		if !langAdmitted(lang, k.langs) {
			return false, nil
		}
		if len(ph) == 0 {
			// Unmaterialized phoneme: decode the value and convert through
			// the per-query memo, exactly as the row path would.
			v, _, err := types.DecodeValue(field)
			if err != nil {
				return false, err
			}
			k.ev.countPsi()
			return k.m.Match(k.ev.phoneme(v.UniText())), nil
		}
		k.ev.countPsi()
		return k.m.MatchBytes(ph), nil
	case types.KindText:
		v, _, err := types.DecodeValue(field)
		if err != nil {
			return false, err
		}
		ph, _, _ := k.ev.psiOperand(v, k.langs)
		k.ev.countPsi()
		return k.m.Match(ph), nil
	default:
		return false, operandErr("LEXEQUAL", types.Kind(field[0]), k.probeKind, k.colIsLeft)
	}
}

// compileFusedOmega resolves the constant operand once per statement into a
// wordnet.Probe, bounded by the rows the scan is estimated to read.
func (ev *evaluator) compileFusedOmega(x *plan.Omega, scan *plan.Node) (fusedCond, error) {
	net := ev.taxonomy()
	if net == nil {
		// No taxonomy: the generic path raises evalOmega's error.
		return nil, nil
	}
	col, probeExpr, colIsLeft, ok := colAndConst(x.L, x.R)
	if !ok {
		return nil, nil
	}
	pv, err := ev.eval(probeExpr, nil)
	if err != nil {
		return nil, nil
	}
	if pv.IsNull() {
		return constFalseKernel{}, nil
	}
	pu, okp := omegaOperand(pv)
	if !okp {
		return nil, nil
	}
	skip, ok := skipTo(scan.Schema(), col)
	if !ok {
		return nil, nil
	}
	var shared map[*plan.Omega]*compiledOmega
	if ev.par != nil {
		shared = ev.par.shared.omega
	}
	c := shared[x]
	if c == nil {
		c = &compiledOmega{res: ev.res}
		if colIsLeft {
			c.probe = net.CompileRight(pu, x.Langs, int(scan.EstimatedRows()))
		} else {
			c.probe = net.CompileLeft(pu, x.Langs)
		}
		c.bytes = c.probe.MemBytes()
		if err := ev.grow(c.bytes); err != nil {
			ev.release(c.bytes)
			return nil, err
		}
		if shared != nil {
			shared[x] = c
		}
	}
	c.refs.Add(1)
	return &omegaKernel{
		ev:        ev,
		skip:      skip,
		probe:     c.probe,
		held:      c,
		probeKind: pv.Kind(),
		colIsLeft: colIsLeft,
	}, nil
}

// compiledOmega is a statement's compiled Ω operand and its charge. A
// Gather's workers compile it once: the first builds and charges it, the
// others take a reference, and the last kernel to close releases it.
type compiledOmega struct {
	probe *wordnet.Probe
	res   *Resources
	bytes int64
	refs  atomic.Int32
}

// omegaKernel is a fused Ω predicate: the column's language and text read as
// views on the pinned page and handed to the compiled probe, so a row costs
// no decode, no lock and no allocation.
type omegaKernel struct {
	ev        *evaluator
	skip      types.SkipPlan
	probe     *wordnet.Probe
	held      *compiledOmega
	probeKind types.Kind
	colIsLeft bool
}

// matchRec counts a probe (evaluator.countOmega, as evalOmega does) for every
// non-NULL text row, whether or not its language is admitted.
func (k *omegaKernel) matchRec(rec []byte) (bool, error) {
	field, err := k.skip.Seek(rec)
	if err != nil {
		return false, err
	}
	var lang types.LangID
	var text []byte
	switch types.Kind(field[0]) {
	case types.KindNull:
		return false, nil
	case types.KindUniText:
		lang, text, _, err = types.UniTextViews(field)
	case types.KindText:
		// Bare TEXT is read as English, as omegaOperand reads it.
		var v types.Value
		v, _, err = types.DecodeValue(field)
		lang, text = types.LangEnglish, []byte(v.Text())
	default:
		return false, operandErr("SEMEQUAL", types.Kind(field[0]), k.probeKind, k.colIsLeft)
	}
	if err != nil {
		return false, err
	}
	k.ev.countOmega()
	return k.probe.Match(lang, text), nil
}

func (k *omegaKernel) close() {
	if k.held != nil && k.held.refs.Add(-1) == 0 {
		k.held.res.Release(k.held.bytes)
	}
	k.held = nil
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
	kern fusedCond

	scanSt     *OpStats
	filtSt     *OpStats
	timed      bool
	done       bool
	eosCounted bool
}

// buildFusedScan instantiates the fused form of filter node n over its scan
// child; from here on the scan owns the kernel.
func buildFusedScan(env Env, ev *evaluator, n *plan.Node, kern fusedCond) (BatchIter, error) {
	scan := n.Children[0]
	src, err := newRecordSource(env, ev, scan)
	if err != nil {
		kern.close()
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

func (f *fusedScanIter) Close() error {
	f.kern.close()
	return f.src.Close()
}
