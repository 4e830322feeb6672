package exec

import (
	"fmt"
	"slices"

	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// Ψ (LexEQUAL) and Ω (SemEQUAL) are defined in this file and nowhere else:
// how an operand is read (TEXT is the query's first listed language to Ψ,
// English to Ω), that a NULL operand never matches, which languages the IN
// clause admits, the one operand-kind error, and where an evaluation is
// counted (evaluator.count, stats.go).
//
// A predicate with a constant operand — column ⊗ constant, in either order —
// is compiled once per statement (bind): the constant is evaluated, read and
// admitted once and becomes a constPred — for Ψ its phoneme compiled into a
// BoundedMatcher, for Ω a wordnet.Probe. A Ψ or Ω join over one column of
// each side compiles the same constPred for each outer row (compile): the
// hoisted join (join.go) for each row of a block, the Ψ index join for each
// row it probes the M-Tree with. A constant that fails to evaluate or is not
// text compiles too: its error is raised at each row that reaches the
// predicate, where evaluating it per row would have raised it.
//
// The row's side of a compiled predicate is an operand, and one routine,
// constPred.match, evaluates every pair in two halves: the key test
// (keyTest: admission, the count, then Ω's label test or filter, or Ψ's
// prefilter), which reads the operand's kind, language and filter keys only,
// and finish (Ω's verification or Ψ's edit distance), which views it. Every
// reader hands match the same operand. The page kernel (fuse.go) reads it in
// place off a record (operand.readRecord), the keyed column's language and
// filter keys off its heap slot, and key-tests those in place ahead of it
// where a predicate admits every text row (uniRows), so that only finish is
// left for a pair its test passed. The generic filter, the index rechecks
// and the Ψ index join set the operand from the decoded value (operand.set),
// which has no label: Ω tests it on its text's hash (Probe.Passes) and
// verifies it. indexProbe and the index join search a metric index for the
// constant's phoneme (metricSearch). Any other Ψ or Ω, over two computed
// operands, goes through the same rules row by row (evalPsi, evalOmega).

// isText reports whether a value of kind k can be a Ψ or Ω operand.
func isText(k types.Kind) bool { return k == types.KindText || k == types.KindUniText }

// operandKinds applies the rules Ψ and Ω share to the kinds of their
// operands, in the order the query wrote them: a NULL operand never matches
// (ok=false), and past that both must be text.
func operandKinds(op string, l, r types.Kind) (ok bool, err error) {
	if l == types.KindNull || r == types.KindNull {
		return false, nil
	}
	if !isText(l) || !isText(r) {
		return false, fmt.Errorf("exec: %s operands must be text, got %s and %s", op, l, r)
	}
	return true, nil
}

// langAdmitted applies the IN-langs clause of Figure 2: when the query
// names output languages, a value only matches if its language is listed.
func langAdmitted(lang types.LangID, langs []types.LangID) bool {
	return len(langs) == 0 || slices.Contains(langs, lang)
}

// psiAdmits applies the IN clause to one Ψ operand of kind k: a UNITEXT
// value must be in a listed language, bare TEXT is read in one and always
// is. Both operands are checked, so the operator is symmetric, per the Mural
// algebra.
func psiAdmits(k types.Kind, lang types.LangID, langs []types.LangID) bool {
	return k != types.KindUniText || langAdmitted(lang, langs)
}

// textLang is the language x, a Ψ or an Ω, reads a bare TEXT operand in: Ψ
// the query's first listed language, English when it lists none — the
// paper's query names arrive "in one language"; Ω English.
func textLang(x plan.Expr) types.LangID {
	if psi, ok := x.(*plan.Psi); ok && len(psi.Langs) > 0 {
		return psi.Langs[0]
	}
	return types.LangEnglish
}

// uniText reads a text value as an operand: a UNITEXT value as stored, bare
// TEXT in lang (textLang).
func uniText(v types.Value, lang types.LangID) types.UniText {
	if v.Kind() == types.KindUniText {
		return v.UniText()
	}
	return types.Compose(v.Text(), lang)
}

// phoneme is u's phoneme string: the stored one, or for a value stored
// without it a conversion through the engine's G2P cache.
func (ev *evaluator) phoneme(u types.UniText) string {
	if u.Phoneme != "" {
		return u.Phoneme
	}
	return ev.convert(u)
}

// convert is phoneme's slow path, apart so that phoneme inlines.
func (ev *evaluator) convert(u types.UniText) string { return ev.env.G2P().ToPhoneme(u, &ev.g2p) }

// evalPsi is Ψ evaluated per row over two operand expressions: any Ψ that
// bind and the joins' hoisting left as it was, such as a residual filter's.
func (ev *evaluator) evalPsi(x *plan.Psi, t types.Tuple) (bool, error) {
	// Ψ is the expensive per-row work of a LexEQUAL plan (G2P conversion +
	// edit distance), so the evaluation path carries its own checkpoint.
	if err := ev.tick(); err != nil {
		return false, err
	}
	l, err := ev.eval(x.L, t)
	if err != nil {
		return false, err
	}
	r, err := ev.eval(x.R, t)
	if err != nil {
		return false, err
	}
	if ok, err := operandKinds("LEXEQUAL", l.Kind(), r.Kind()); !ok {
		return false, err
	}
	lang := textLang(x)
	lu, ru := uniText(l, lang), uniText(r, lang)
	if !psiAdmits(l.Kind(), lu.Lang, x.Langs) || !psiAdmits(r.Kind(), ru.Lang, x.Langs) {
		return false, nil
	}
	ev.count(false, 1)
	return phonetic.WithinDistance(ev.phoneme(lu), ev.phoneme(ru), x.Threshold), nil
}

// evalOmega is Ω evaluated per row over two operand expressions: any Ω that
// bind and the joins' hoisting left as it was. Both operands keep
// their own language: the IN clause names *output* languages (which values
// of the left operand may match), not the language of the query concept —
// 'History' in Figure 4 is an English word even though the results span
// English, French and Tamil.
func (ev *evaluator) evalOmega(x *plan.Omega, t types.Tuple) (bool, error) {
	net := ev.taxonomy()
	if net == nil {
		return false, fmt.Errorf("exec: SEMEQUAL requires a loaded taxonomy")
	}
	if err := ev.tick(); err != nil {
		return false, err
	}
	l, err := ev.eval(x.L, t)
	if err != nil {
		return false, err
	}
	r, err := ev.eval(x.R, t)
	if err != nil {
		return false, err
	}
	if ok, err := operandKinds("SEMEQUAL", l.Kind(), r.Kind()); !ok {
		return false, err
	}
	ev.count(true, 1)
	lu := uniText(l, types.LangEnglish)
	h, ascii := types.CaseHash([]byte(lu.Text))
	return net.CompileRight(uniText(r, types.LangEnglish), x.Langs, 0).Match(lu.Lang, []byte(lu.Text), h, ascii), nil
}

// colAndConst splits a binary predicate into its column side and its
// constant side, an expression that reads no column. ok=false for any other
// shape: column ⊗ column, or an operand computed from a column.
func colAndConst(l, r plan.Expr) (col *plan.ColIdx, konst plan.Expr, constLeft, ok bool) {
	if c, isCol := l.(*plan.ColIdx); isCol && constant(r) {
		return c, r, false, true
	}
	if c, isCol := r.(*plan.ColIdx); isCol && constant(l) {
		return c, l, true, true
	}
	return nil, nil, false, false
}

// constant reports whether e reads no column.
func constant(e plan.Expr) bool {
	reads := false
	plan.Walk(e, func(x plan.Expr) {
		if _, ok := x.(*plan.ColIdx); ok {
			reads = true
		}
	})
	return !reads
}

// stmtPreds holds a statement's compiled predicates by the plan node each
// one compiles, so every operator and Gather worker that evaluates a node
// shares one compiled form. What compiling charged to the query (Ω's
// filters) is held until the statement closes.
type stmtPreds struct {
	m     map[plan.Expr]*constPred
	bytes int64
}

// release returns what the statement's compiled predicates charged.
func (s *stmtPreds) release(res *Resources) {
	res.Release(s.bytes)
	s.bytes = 0
}

// bind returns cond with every Ψ and Ω of its AND/OR/NOT structure that has a
// constant operand replaced by its compiled form; the rest of the tree is
// shared, not copied. rows is how many rows cond is expected to see without
// a label, the bound on an Ω probe's filters. The error is a governance failure: a compiled
// operand the query's memory budget cannot hold.
func (ev *evaluator) bind(cond plan.Expr, rows float64) (plan.Expr, error) {
	switch x := cond.(type) {
	case *plan.AndOr:
		l, err := ev.bind(x.L, rows)
		if err != nil {
			return nil, err
		}
		r, err := ev.bind(x.R, rows)
		if err != nil || (l == x.L && r == x.R) {
			return x, err
		}
		return &plan.AndOr{Or: x.Or, L: l, R: r}, nil
	case *plan.Neg:
		inner, err := ev.bind(x.Inner, rows)
		if err != nil || inner == x.Inner {
			return x, err
		}
		return &plan.Neg{Inner: inner}, nil
	case *plan.Psi:
		return ev.bindConst(x, x.L, x.R, rows)
	case *plan.Omega:
		if ev.taxonomy() == nil {
			return x, nil // evalOmega raises the missing-taxonomy error per row
		}
		return ev.bindConst(x, x.L, x.R, rows)
	}
	return cond, nil
}

// constPred is a Ψ or Ω node with a constant operand, compiled: the
// constant's kind and, for Ψ, its admission and its phoneme as a
// BoundedMatcher, for Ω a wordnet.Probe — the constant's synsets and their
// pre-order intervals, which a stored label is tested against, and filters
// over the word forms it can match for rows read without a label: with the
// constant on the right, its closure's in the admitted languages, with it on
// the left, its ancestors', when there are no more synsets × languages than
// such rows to probe (none when every row has a label). It is
// immutable, so a Gather's workers share it, and it embeds its plan node, so a
// bound condition is still a plan.Expr.
type constPred struct {
	plan.Expr
	op        string // LEXEQUAL or SEMEQUAL, for the operand-kind error
	col       *plan.ColIdx
	constLeft bool
	kind      types.Kind   // the constant's; KindNull never matches
	err       error        // the constant's evaluation error
	textLang  types.LangID // the language a bare TEXT row operand is read in
	// uniRows: the rules admit every text row — the constant is admitted
	// text and Ψ has no IN list to apply to the row — so match skips them
	// for a text operand.
	uniRows bool
	// Ψ: the IN list, and the constant's phoneme and matcher (nil unless
	// the constant is text the IN list admits).
	langs    []types.LangID
	admitted bool
	ph       string
	m        *phonetic.BoundedMatcher
	// Ω: nil unless the constant is text. The IN list is the probe's to
	// apply: it restricts the left operand, the row or the constant.
	probe *wordnet.Probe
}

// bindConst returns the statement's compiled form of x, whose operands are l
// and r, compiling it on first use; x itself when it has no constant operand.
func (ev *evaluator) bindConst(x, l, r plan.Expr, rows float64) (plan.Expr, error) {
	if p, ok := ev.preds.m[x]; ok {
		return p, nil
	}
	col, konst, constLeft, ok := colAndConst(l, r)
	if !ok {
		return x, nil
	}
	v, err := ev.eval(konst, nil)
	p := ev.compile(x, constLeft, v, err, rows)
	p.col = col
	n := p.memBytes()
	ev.preds.bytes += n
	if ev.preds.m == nil {
		ev.preds.m = make(map[plan.Expr]*constPred)
	}
	ev.preds.m[x] = p
	return p, ev.grow(n)
}

// compile builds the constPred of x, a Ψ or Ω (over a loaded taxonomy), with
// v as its constant operand — its left one when constLeft — and err as v's
// evaluation error. rows is how many rows it is expected to see without a
// label, the bound on an Ω probe's filters. What the probe holds (memBytes) is the caller's to charge.
func (ev *evaluator) compile(x plan.Expr, constLeft bool, v types.Value, err error, rows float64) *constPred {
	p := &constPred{Expr: x, constLeft: constLeft, admitted: true, kind: v.Kind(), err: err, textLang: textLang(x)}
	text := err == nil && isText(p.kind)
	var u types.UniText
	if text {
		u = uniText(v, p.textLang)
	}
	switch x := x.(type) {
	case *plan.Psi:
		p.op, p.langs = "LEXEQUAL", x.Langs
		if p.admitted = psiAdmits(p.kind, u.Lang, x.Langs); text && p.admitted {
			p.ph = ev.phoneme(u)
			p.m = phonetic.NewBoundedMatcher(p.ph, x.Threshold)
		}
	case *plan.Omega:
		p.op = "SEMEQUAL"
		if net := ev.taxonomy(); text && constLeft {
			p.probe = net.CompileLeft(u, x.Langs, int(rows))
		} else if text {
			p.probe = net.CompileRight(u, x.Langs, int(rows))
		}
	}
	p.uniRows = (p.m != nil || p.probe != nil) && len(p.langs) == 0
	return p
}

// memBytes is what the compiled operand holds beyond the net it reads: an Ω
// probe's synsets and filters.
func (p *constPred) memBytes() int64 {
	if p.probe == nil {
		return 0
	}
	return p.probe.MemBytes()
}

// admits applies Ψ's or Ω's rules to a row whose column value has kind k
// (and, for UNITEXT, language lang): ok=true when the pair goes on to the
// matcher or probe.
func (p *constPred) admits(k types.Kind, lang types.LangID) (bool, error) {
	if p.err != nil {
		return false, p.err
	}
	l, r := k, p.kind
	if p.constLeft {
		l, r = r, l
	}
	if ok, err := operandKinds(p.op, l, r); !ok {
		return false, err
	}
	return p.admitted && psiAdmits(k, lang, p.langs), nil
}

// metricSearch searches metric index ix for the constant phoneme of p, a
// compiled Ψ, within its threshold, recording the pages visited on the run.
// A constant that never matches searches for nothing; one that failed or is
// not text fails the search with the error a row of the index's column, which
// is UNITEXT, would raise.
func (ev *evaluator) metricSearch(ix string, p *constPred) ([]storage.RID, error) {
	if p.m == nil {
		_, err := p.admits(types.KindUniText, types.LangUnknown)
		return nil, err
	}
	rids, pages, err := ev.env.MetricSearch(ix, p.ph, p.Expr.(*plan.Psi).Threshold)
	ev.stats.IndexPages += int64(pages)
	return rids, err
}

// operand is the row's side of a compiled Ψ or Ω, as match takes it from
// every reader: its kind, its language and filter keys, which match tests
// first, and views of its text and phoneme, read only for a pair the keys let
// through (view). Read off a record (readRecord), the value of its table's
// keyed column takes its language and keys — its phoneme's summary and its
// text's Ω label — from its heap slot (types.SlotKeys) and is walked to only
// when viewed; any other value, like one set from its decoded form (set),
// carries no label, and for Ω its text's hash instead. A TEXT operand is read
// in the language of the predicate that matches it (constPred.textLang). A
// phoneme the value lacks is converted from its text once (convert), however
// many predicates the operand meets, and a labelled text that Ω verifies is
// hashed once (textHash). Each evaluator keeps one (evaluator.op), which
// every reader refills for each row, so the per-row path neither allocates
// nor clears it.
type operand struct {
	kind types.Kind
	Lang types.LangID
	Keys types.Keys
	// labelled: Keys came from a heap slot, so Keys.Label is the text's;
	// else the operand has no label and, for Ω, hash is its text's.
	labelled bool
	// The text's types.CaseHash, once hashed.
	hash          uint32
	ascii, hashed bool
	// rec is the record of a keyed UNITEXT value, which skip walks to when
	// it is viewed.
	rec       []byte
	skip      *types.SkipPlan
	viewed    bool
	text, ph  []byte
	conv      string // the phoneme converted from text, once converted
	converted bool
	buf       []byte // the bytes of a value set from its decoded form
}

// readRecord reads the operand at the column skip walks to in record rec
// over whatever o held. slot is the row's slot keys when the column is its
// table's keyed one, nil otherwise: a UNITEXT value with keys there takes its
// language and keys from them, its walk and views left for view, so a pair
// its keys reject costs neither; a phoneme whose rune count overflowed its
// byte is matched whole, as a decoded one is. Any other value is walked to
// now and read as set reads a decoded one: views, and the text's hash when
// hash (Ω).
func (o *operand) readRecord(skip *types.SkipPlan, rec, slot []byte, hash bool) error {
	o.converted, o.hashed = false, false
	if lang, keys, ok := types.SlotKeys(slot); ok {
		if keys.Phoneme.Runes == types.RunesOverflow {
			keys.Phoneme = types.Summary{}
		}
		o.kind, o.Lang, o.Keys, o.labelled, o.rec, o.skip, o.viewed = types.KindUniText, lang, keys, true, rec, skip, false
		return nil
	}
	field, err := walk(skip, rec)
	if err != nil {
		return err
	}
	o.kind, o.viewed, o.Keys, o.labelled = types.Kind(field[0]), true, types.Keys{}, false
	switch o.kind {
	case types.KindUniText:
		o.Lang, o.text, o.ph, err = types.UniTextViews(field)
	case types.KindText:
		o.text, err = types.TextView(field)
		o.ph = nil
	default:
		return nil
	}
	if hash && err == nil {
		o.textHash()
	}
	return err
}

// walk is the field skip walks to in record rec: the fast walk
// (SkipPlan.Offset) where it answers, else Seek.
func walk(skip *types.SkipPlan, rec []byte) ([]byte, error) {
	if off, ok := skip.Offset(rec); ok {
		return rec[off:], nil
	}
	return skip.Seek(rec)
}

// set makes the operand the decoded value v with the one key its predicate
// reads: the text's hash when hash (Ω); none for Ψ, which matches a phoneme
// without a stored summary whole (BoundedMatcher.MatchBytes).
func (o *operand) set(v types.Value, hash bool) {
	o.kind, o.viewed, o.converted, o.hashed, o.Keys, o.labelled = v.Kind(), true, false, false, types.Keys{}, false
	switch o.kind {
	case types.KindUniText:
		u := v.UniText()
		o.buf = append(append(o.buf[:0], u.Text...), u.Phoneme...)
		o.Lang, o.text, o.ph = u.Lang, o.buf[:len(u.Text)], o.buf[len(u.Text):]
	case types.KindText:
		o.buf = append(o.buf[:0], v.Text()...)
		o.text, o.ph = o.buf, nil
	}
	if hash {
		o.textHash()
	}
}

// textHash is the viewed operand's text's types.CaseHash, hashed once.
func (o *operand) textHash() (uint32, bool) {
	if !o.hashed {
		o.hash, o.ascii = types.CaseHash(o.text)
		o.hashed = true
	}
	return o.hash, o.ascii
}

// view reads the operand's text and phoneme views, once.
func (o *operand) view() error {
	if o.viewed {
		return nil
	}
	o.viewed = true
	field, err := walk(o.skip, o.rec)
	if err != nil {
		return err
	}
	_, o.text, o.ph, err = types.UniTextViews(field)
	return err
}

// convert is the phoneme of the viewed operand's text, converted once
// through the engine's G2P cache.
func (o *operand) convert(ev *evaluator) string {
	if !o.converted {
		o.conv, o.converted = ev.convert(types.Compose(string(o.text), o.Lang)), true
	}
	return o.conv
}

// match evaluates the predicate on the row's operand op: the key test, then,
// for a pair it lets through, finish. A pair its keys reject — Ω's label
// test, or its filter on the text's hash, Ψ's prefilter on a stored
// phoneme's summary — costs no view of the operand; an operand without a
// phoneme is converted.
func (p *constPred) match(ev *evaluator, op *operand) (bool, error) {
	if op.kind == types.KindText {
		op.Lang = p.textLang
	}
	if pass, err := p.keyTest(ev, op); !pass {
		return false, err
	}
	return p.finish(ev, op)
}

// keyTest is the part of match that reads the row's operand only through
// its kind, language and filter keys: admission, which uniRows lets a text
// operand skip, then filter. pass=false ends the pair.
func (p *constPred) keyTest(ev *evaluator, op *operand) (pass bool, err error) {
	if !p.uniRows || !isText(op.kind) {
		if ok, err := p.admits(op.kind, op.Lang); !ok {
			return false, err
		}
	}
	return p.filter(ev, op), nil
}

// filter is the key test of an admitted operand: the count, then Ω's label
// test (a labelled operand) or filter (any other), or Ψ's prefilter, which a
// phoneme without a stored summary (Runes 0) passes.
func (p *constPred) filter(ev *evaluator, op *operand) bool {
	ev.count(p.probe != nil, 1)
	switch {
	case p.probe == nil:
		return op.Keys.Phoneme.Runes == 0 || !p.m.Rejects(op.Keys.Phoneme)
	case op.labelled:
		return p.probe.PassesLabel(op.Lang, op.Keys.Label)
	}
	return p.probe.Passes(op.Lang, op.hash, op.ascii)
}

// finish is the part of match that views the operand, for a pair the key
// test let through: for Ω nothing when its label passed, which is exact, else
// the verification on its text; for Ψ the edit distance — against the stored
// summary, the decoded phoneme, or the phoneme converted from the text.
func (p *constPred) finish(ev *evaluator, op *operand) (bool, error) {
	if p.probe != nil && op.labelled && !types.Verifies(op.Keys.Label) {
		return true, nil
	}
	if err := op.view(); err != nil {
		return false, err
	}
	switch {
	case p.probe != nil:
		h, ascii := op.textHash()
		return p.probe.Verify(op.Lang, op.text, h, ascii), nil
	case op.Keys.Phoneme.Runes > 0:
		return p.m.MatchSummary(op.ph, op.Keys.Phoneme), nil
	case len(op.ph) > 0:
		return p.m.MatchBytes(op.ph), nil // set from a decoded value: no summary
	}
	return p.m.Match(op.convert(ev)), nil
}

// eval evaluates the predicate on a decoded row.
func (p *constPred) eval(ev *evaluator, t types.Tuple) (bool, error) {
	if err := ev.tick(); err != nil {
		return false, err
	}
	v, err := ev.eval(p.col, t)
	if err != nil {
		return false, err
	}
	ev.op.set(v, p.probe != nil)
	return p.match(ev, &ev.op)
}
