package exec

import (
	"errors"
	"fmt"

	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// Ψ (LexEQUAL) and Ω (SemEQUAL) are defined in this file and nowhere else:
// how an operand is read (TEXT is the query's first listed language to Ψ,
// English to Ω), that a NULL operand never matches, which languages the IN
// clause admits, the one operand-kind error, and where an evaluation is
// counted (countPsi/countOmega, stats.go).
//
// A predicate with a constant operand — column ⊗ constant, in either order —
// is compiled once per statement (bind): the constant is evaluated, read and
// admitted once and becomes a constPred — for Ψ its phoneme compiled into a
// BoundedMatcher, for Ω a wordnet.Probe. Three callers apply the compiled
// form: the fused kernels (fuse.go), which read the column's stored keys and
// views off the pinned page; the generic filter, join and index rechecks,
// which read the decoded Value; and indexProbe, which searches for the
// constant's phoneme. A constant that fails to evaluate or is not text
// compiles too: its error is raised at each row that reaches the predicate,
// where evaluating it per row would have raised it.
//
// A Ψ or Ω join over one column of each side compiles the same constPred
// for each outer row of a block, from that row's value (compile), and
// streams the inner side past the block once: each inner record's operand is
// read off the page or the join's record buffer (join.go) with its filter
// keys, and matched against every compiled outer row as the kernel matches a
// row (matchOperand), its views read at most once, for the first pair its
// keys let through (operand). The Ψ index join compiles its outer row the
// same way, to probe the M-Tree and recheck the candidates. Any other Ψ or Ω
// over two computed operands goes through the same rules row by row
// (evalPsi, evalOmega).

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
	if len(langs) == 0 {
		return true
	}
	for _, l := range langs {
		if l == lang {
			return true
		}
	}
	return false
}

// psiAdmits applies the IN clause to one Ψ operand of kind k: a UNITEXT
// value must be in a listed language, bare TEXT is read in one and always
// is. Both operands are checked, so the operator is symmetric, per the Mural
// algebra.
func psiAdmits(k types.Kind, lang types.LangID, langs []types.LangID) bool {
	return k != types.KindUniText || langAdmitted(lang, langs)
}

// uniLang is a UNITEXT value's language (LangUnknown for any other kind).
func uniLang(v types.Value) types.LangID {
	if v.Kind() != types.KindUniText {
		return types.LangUnknown
	}
	return v.UniText().Lang
}

// psiText reads a text value as Ψ does: a UNITEXT value as stored, bare
// TEXT in the query's first listed language, English when it lists none —
// the paper's query names arrive "in one language".
func psiText(v types.Value, langs []types.LangID) types.UniText {
	if v.Kind() == types.KindUniText {
		return v.UniText()
	}
	return types.Compose(v.Text(), psiLang(langs))
}

// psiLang is the language Ψ reads bare TEXT in.
func psiLang(langs []types.LangID) types.LangID {
	if len(langs) > 0 {
		return langs[0]
	}
	return types.LangEnglish
}

// textLang is the language x, a Ψ or an Ω, reads a bare TEXT operand in.
func textLang(x plan.Expr) types.LangID {
	if psi, ok := x.(*plan.Psi); ok {
		return psiLang(psi.Langs)
	}
	return types.LangEnglish
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

// omegaOperand reads a text value as Ω does: bare TEXT is English.
func omegaOperand(v types.Value) types.UniText {
	if v.Kind() == types.KindText {
		return types.Compose(v.Text(), types.LangEnglish)
	}
	return v.UniText()
}

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
	lu, ru := psiText(l, x.Langs), psiText(r, x.Langs)
	if !psiAdmits(l.Kind(), lu.Lang, x.Langs) || !psiAdmits(r.Kind(), ru.Lang, x.Langs) {
		return false, nil
	}
	ev.countPsi()
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
	ev.countOmega()
	lu := omegaOperand(l)
	h, ascii := types.CaseHash([]byte(lu.Text))
	return net.CompileRight(omegaOperand(r), x.Langs, 0).Match(lu.Lang, []byte(lu.Text), h, ascii), nil
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
// shared, not copied. rows is how many rows cond is expected to see, the
// bound on an Ω probe's filters. The error is a governance failure: a compiled
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
// BoundedMatcher, for Ω a wordnet.Probe — the constant's synsets, and filters
// over the word forms it can match: with the constant on the right, its
// closure's in the admitted languages when there are no more synsets ×
// languages than rows to probe; with it on the left, its ancestors'. It is
// immutable, so a Gather's workers share it, and it embeds its plan node, so a
// bound condition is still a plan.Expr.
type constPred struct {
	plan.Expr
	op        string // LEXEQUAL or SEMEQUAL, for the operand-kind error
	col       *plan.ColIdx
	constLeft bool
	kind      types.Kind // the constant's; KindNull never matches
	err       error      // the constant's evaluation error
	// uniRows: the rules admit every text row — the constant is admitted
	// text and Ψ has no IN list to apply to the row — so matchView, the
	// per-row path of every scan and Ψ/Ω join, skips them.
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
// evaluation error. rows is how many rows it is expected to see, the bound on
// an Ω probe's filters. What the probe holds (memBytes) is the caller's to charge.
func (ev *evaluator) compile(x plan.Expr, constLeft bool, v types.Value, err error, rows float64) *constPred {
	p := &constPred{Expr: x, constLeft: constLeft, admitted: true, kind: v.Kind(), err: err}
	text := err == nil && isText(p.kind)
	switch x := x.(type) {
	case *plan.Psi:
		p.op, p.langs = "LEXEQUAL", x.Langs
		if p.admitted = psiAdmits(p.kind, uniLang(v), x.Langs); text && p.admitted {
			p.ph = ev.phoneme(psiText(v, x.Langs))
			p.m = phonetic.NewBoundedMatcher(p.ph, x.Threshold)
		}
	case *plan.Omega:
		p.op = "SEMEQUAL"
		if net := ev.taxonomy(); text && constLeft {
			p.probe = net.CompileLeft(omegaOperand(v), x.Langs)
		} else if text {
			p.probe = net.CompileRight(omegaOperand(v), x.Langs, int(rows))
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

// operand is a Ψ or Ω operand read in place — off a pinned page or a join's
// record buffer — as the fused kernel and the hoisted join hand it to a
// compiled predicate: its kind, language and filter keys, which the predicate
// tests first, and views of its text and phoneme, read only for a pair the
// keys let through (view). A UNITEXT value's keys are the ones written at
// insert (types.ReadStored); a TEXT value's are computed as it is read
// (read). Its reader keeps one and refills it for each row, so the per-row
// path neither copies nor clears it.
type operand struct {
	kind types.Kind
	// Lang and Keys, and for a stored value the field whose views are
	// pending until viewed.
	types.StoredUniText
	viewed   bool
	text, ph []byte
}

// read reads the operand at field (as SkipPlan.Seek returns it) over
// whatever o held: a stored UNITEXT value's language and keys; TEXT, in
// language textLang, as its view and the keys computed from it; any other
// kind alone. A UNITEXT value without stored keys — the wire encoding's,
// which no record holds — is an error (errUnkeyed).
func (o *operand) read(field []byte, textLang types.LangID) error {
	if ok, err := types.ReadStored(field, &o.StoredUniText); ok {
		o.kind, o.viewed = types.KindUniText, false
		return err
	}
	o.kind, o.viewed, o.Keys = types.Kind(field[0]), true, types.Keys{}
	switch o.kind {
	case types.KindUniText:
		return errUnkeyed
	case types.KindText:
		var err error
		o.Lang, o.ph = textLang, nil
		o.text, err = types.TextView(field)
		o.Keys.Hash, o.Keys.ASCII = types.CaseHash(o.text)
		return err
	}
	return nil
}

// errUnkeyed is a record's UNITEXT value without the filter keys the storage
// encoder (types.EncodeRecord) writes: a record the fused kernel or the
// hoisted join reads was encoded by another encoder.
var errUnkeyed = errors.New("exec: UNITEXT value in a record without its stored keys")

// view reads the operand's text and phoneme views, once.
func (o *operand) view() error {
	if o.viewed {
		return nil
	}
	o.viewed = true
	var err error
	o.text, o.ph, err = o.Views()
	return err
}

// matchView evaluates the predicate on a text operand read in place: a
// pair its keys reject — Ω's filter on the text's hash, Ψ's prefilter on the
// phoneme's summary — costs no view of the operand. done=false leaves the row
// to a conversion: Ψ over a value with no stored phoneme.
func (p *constPred) matchView(ev *evaluator, op *operand) (match, done bool, err error) {
	if !p.uniRows {
		if ok, err := p.admits(op.kind, op.Lang); !ok {
			return false, true, err
		}
	}
	switch {
	case p.probe != nil:
		ev.countOmega()
		if !p.probe.Passes(op.Lang, op.Keys.Hash, op.Keys.ASCII) {
			return false, true, nil
		}
		err := op.view()
		return err == nil && p.probe.Verify(op.Lang, op.text), true, err
	case op.Keys.Phoneme.Runes > 0:
		ev.countPsi()
		if p.m.Rejects(op.Keys.Phoneme) {
			return false, true, nil
		}
		err := op.view()
		return err == nil && p.m.MatchSummary(op.ph, op.Keys.Phoneme), true, err
	}
	return false, false, nil
}

// matchValue evaluates the predicate on the column's decoded value.
func (p *constPred) matchValue(ev *evaluator, v types.Value) (bool, error) {
	if ok, err := p.admits(v.Kind(), uniLang(v)); !ok {
		return false, err
	}
	if p.probe != nil {
		ev.countOmega()
		u := omegaOperand(v)
		h, ascii := types.CaseHash([]byte(u.Text))
		return p.probe.Match(u.Lang, []byte(u.Text), h, ascii), nil
	}
	ev.countPsi()
	return p.m.Match(ev.phoneme(psiText(v, p.langs))), nil
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
	return p.matchValue(ev, v)
}

// matchOperand evaluates the predicate, compiled from an outer row, on a
// join's inner operand (operand.read): text as matchView reads it, any other
// kind — NULL, or the operand-kind error — through admits. done=false leaves
// the row to a conversion, as matchView does; matchConverted finishes it.
func (p *constPred) matchOperand(ev *evaluator, op *operand) (match, done bool, err error) {
	if !isText(op.kind) {
		_, err := p.admits(op.kind, types.LangUnknown)
		return false, true, err
	}
	return p.matchView(ev, op)
}

// matchConverted finishes a Ψ that matchView left to a conversion, on the
// operand's converted phoneme.
func (p *constPred) matchConverted(ev *evaluator, ph string) bool {
	ev.countPsi()
	return p.m.Match(ph)
}
