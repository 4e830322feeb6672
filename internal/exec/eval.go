package exec

import (
	"fmt"

	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// evaluator evaluates compiled expressions against tuples, with access to
// the runtime Env for the multilingual operators.
type evaluator struct {
	env   Env
	stats *RunStats
	// collector, when non-nil, makes build wrap every operator with a
	// counting (and, when timed, timing) iterator.
	collector *ExecStats
	// par, when non-nil, marks this evaluator as one Gather worker's: scans
	// of Parallel plan nodes claim morsels instead of the whole table.
	par *parallelCtx
	// memo is the per-query (per-worker) G2P memoization cache, created on
	// the first Ψ conversion so plain queries never pay for it.
	memo *phonetic.MemoCache
	// res, when non-nil, is the query's shared governance state (cancel
	// context + memory accountant); ticks is this evaluator's private
	// amortization counter for the cancellation checkpoint.
	res   *Resources
	ticks uint32
	// pool is the query's batch pool; Gather workers share the parent's.
	pool *BatchPool
	// unpubPsi/unpubOmega are evaluations counted into stats but not yet
	// added to the process-wide metrics, g2p the G2P cache and converter
	// events likewise (see publishCounts).
	unpubPsi   int64
	unpubOmega int64
	g2p        phonetic.Tally
	// net is the taxonomy, read from the Env (under the engine's lock) once.
	net *wordnet.Net
}

// taxonomy returns the taxonomy Ω probes, nil when none is loaded (then the
// statement fails on its first Ω evaluation).
func (ev *evaluator) taxonomy() *wordnet.Net {
	if ev.net == nil {
		ev.net = ev.env.WordNet()
	}
	return ev.net
}

// phoneme converts through the per-query memo cache: in a Ψ join, the inner
// side's unmaterialized values convert once per distinct string rather than
// once per probe. Each worker owns its evaluator, so the cache is unshared.
func (ev *evaluator) phoneme(u types.UniText) string {
	if ev.memo == nil {
		ev.memo = phonetic.NewMemoCache(ev.env.Phonetic())
		if sp, ok := ev.env.(SharedG2PProvider); ok {
			if shared := sp.SharedG2P(); shared != nil {
				ev.memo.SetShared(shared)
			}
		}
	}
	return ev.memo.ToPhoneme(u, &ev.g2p)
}

// eval evaluates e over t.
func (ev *evaluator) eval(e plan.Expr, t types.Tuple) (types.Value, error) {
	switch x := e.(type) {
	case *plan.Const:
		return x.Val, nil
	case *plan.ColIdx:
		if x.Idx < 0 || x.Idx >= len(t) {
			return types.Value{}, fmt.Errorf("exec: column $%d out of range (tuple width %d)", x.Idx, len(t))
		}
		return t[x.Idx], nil
	case *plan.Cmp:
		l, err := ev.eval(x.L, t)
		if err != nil {
			return types.Value{}, err
		}
		r, err := ev.eval(x.R, t)
		if err != nil {
			return types.Value{}, err
		}
		// SQL-ish semantics: NULL never compares true.
		if l.IsNull() || r.IsNull() {
			return types.NewBool(false), nil
		}
		if !types.Comparable(l.Kind(), r.Kind()) {
			return types.Value{}, fmt.Errorf("exec: cannot compare %s with %s", l.Kind(), r.Kind())
		}
		var ok bool
		if x.Op == sql.OpEq {
			ok = types.Equal(l, r)
		} else if x.Op == sql.OpNe {
			ok = !types.Equal(l, r)
		} else {
			c := types.Compare(l, r)
			switch x.Op {
			case sql.OpLt:
				ok = c < 0
			case sql.OpLe:
				ok = c <= 0
			case sql.OpGt:
				ok = c > 0
			case sql.OpGe:
				ok = c >= 0
			}
		}
		return types.NewBool(ok), nil
	case *plan.AndOr:
		l, err := ev.evalBool(x.L, t)
		if err != nil {
			return types.Value{}, err
		}
		if x.Or {
			if l {
				return types.NewBool(true), nil
			}
		} else if !l {
			return types.NewBool(false), nil
		}
		r, err := ev.evalBool(x.R, t)
		if err != nil {
			return types.Value{}, err
		}
		return types.NewBool(r), nil
	case *plan.Neg:
		v, err := ev.evalBool(x.Inner, t)
		if err != nil {
			return types.Value{}, err
		}
		return types.NewBool(!v), nil
	case *plan.Like:
		l, err := ev.eval(x.L, t)
		if err != nil {
			return types.Value{}, err
		}
		p, err := ev.eval(x.Pattern, t)
		if err != nil {
			return types.Value{}, err
		}
		if l.IsNull() || p.IsNull() {
			return types.NewBool(false), nil
		}
		return types.NewBool(likeMatch(l.Text(), p.Text())), nil
	case *plan.Psi:
		return ev.evalPsi(x, t)
	case *plan.Omega:
		return ev.evalOmega(x, t)
	case *plan.Call:
		return ev.evalCall(x, t)
	default:
		return types.Value{}, fmt.Errorf("exec: unsupported expression %T", e)
	}
}

func (ev *evaluator) evalBool(e plan.Expr, t types.Tuple) (bool, error) {
	v, err := ev.eval(e, t)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.Kind() != types.KindBool {
		return false, fmt.Errorf("exec: predicate evaluated to %s, not BOOL", v.Kind())
	}
	return v.Bool(), nil
}

// likeMatch implements SQL LIKE: '%' matches any rune run, '_' one rune.
func likeMatch(s, pattern string) bool {
	sr, pr := []rune(s), []rune(pattern)
	var match func(si, pi int) bool
	match = func(si, pi int) bool {
		for pi < len(pr) {
			switch pr[pi] {
			case '%':
				// Collapse consecutive %'s, then try every suffix.
				for pi < len(pr) && pr[pi] == '%' {
					pi++
				}
				if pi == len(pr) {
					return true
				}
				for i := si; i <= len(sr); i++ {
					if match(i, pi) {
						return true
					}
				}
				return false
			case '_':
				if si >= len(sr) {
					return false
				}
				si++
				pi++
			default:
				if si >= len(sr) || sr[si] != pr[pi] {
					return false
				}
				si++
				pi++
			}
		}
		return si == len(sr)
	}
	return match(0, 0)
}

// psiOperand extracts the phoneme string and language of a Ψ operand value.
// UNITEXT values use their materialized phoneme (converting on demand);
// bare TEXT is read as the query's first listed language, defaulting to
// English — the paper's queries supply the input name "in one language".
func (ev *evaluator) psiOperand(v types.Value, langs []types.LangID) (string, types.LangID, bool) {
	switch v.Kind() {
	case types.KindUniText:
		u := v.UniText()
		return ev.phoneme(u), u.Lang, true
	case types.KindText:
		lang := types.LangEnglish
		if len(langs) > 0 {
			lang = langs[0]
		}
		return ev.phoneme(types.Compose(v.Text(), lang)), lang, true
	default:
		return "", types.LangUnknown, false
	}
}

// langAdmitted applies the IN-langs clause of Figure 2: when the query
// names output languages, a stored (column) value only matches if its
// language is listed.
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

func (ev *evaluator) evalPsi(x *plan.Psi, t types.Tuple) (types.Value, error) {
	// Ψ is the expensive per-row work of a LexEQUAL plan (G2P conversion +
	// edit distance), so the evaluation path carries its own checkpoint.
	if err := ev.tick(); err != nil {
		return types.Value{}, err
	}
	l, err := ev.eval(x.L, t)
	if err != nil {
		return types.Value{}, err
	}
	r, err := ev.eval(x.R, t)
	if err != nil {
		return types.Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return types.NewBool(false), nil
	}
	lph, llang, okL := ev.psiOperand(l, x.Langs)
	rph, rlang, okR := ev.psiOperand(r, x.Langs)
	if !okL || !okR {
		return types.Value{}, fmt.Errorf("exec: LEXEQUAL operands must be text, got %s and %s", l.Kind(), r.Kind())
	}
	// The IN clause restricts stored (UNITEXT column) values; both sides
	// are checked so the operator is symmetric, per the Mural algebra.
	if l.Kind() == types.KindUniText && !langAdmitted(llang, x.Langs) {
		return types.NewBool(false), nil
	}
	if r.Kind() == types.KindUniText && !langAdmitted(rlang, x.Langs) {
		return types.NewBool(false), nil
	}
	ev.countPsi()
	return types.NewBool(phonetic.WithinDistance(lph, rph, x.Threshold)), nil
}

// omegaOperand coerces a value to UniText for Ω: bare TEXT is English.
func omegaOperand(v types.Value) (types.UniText, bool) {
	switch v.Kind() {
	case types.KindUniText:
		return v.UniText(), true
	case types.KindText:
		return types.Compose(v.Text(), types.LangEnglish), true
	default:
		return types.UniText{}, false
	}
}

func (ev *evaluator) evalOmega(x *plan.Omega, t types.Tuple) (types.Value, error) {
	net := ev.taxonomy()
	if net == nil {
		return types.Value{}, fmt.Errorf("exec: SEMEQUAL requires a loaded taxonomy")
	}
	l, err := ev.eval(x.L, t)
	if err != nil {
		return types.Value{}, err
	}
	r, err := ev.eval(x.R, t)
	if err != nil {
		return types.Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return types.NewBool(false), nil
	}
	// Both operands keep their own language: the IN clause names *output*
	// languages (which rows may match), not the language of the query
	// concept — 'History' in Figure 4 is an English word even though the
	// results span English, French and Tamil.
	lu, okL := omegaOperand(l)
	ru, okR := omegaOperand(r)
	if !okL || !okR {
		return types.Value{}, fmt.Errorf("exec: SEMEQUAL operands must be text, got %s and %s", l.Kind(), r.Kind())
	}
	ev.countOmega()
	if err := ev.tick(); err != nil {
		return types.Value{}, err
	}
	return types.NewBool(net.CompileRight(ru, x.Langs, 0).Match(lu.Lang, []byte(lu.Text))), nil
}

func (ev *evaluator) evalCall(x *plan.Call, t types.Tuple) (types.Value, error) {
	args := make([]types.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := ev.eval(a, t)
		if err != nil {
			return types.Value{}, err
		}
		args[i] = v
	}
	switch x.Kind {
	case sql.FuncCustom:
		fn := ev.env.CustomOperator(x.Name)
		if fn == nil {
			return types.Value{}, fmt.Errorf("exec: no operator %q registered", x.Name)
		}
		if len(args) != 2 {
			return types.Value{}, fmt.Errorf("exec: operator %q takes two arguments", x.Name)
		}
		ok, err := fn(args[0], args[1])
		if err != nil {
			return types.Value{}, fmt.Errorf("exec: operator %q: %w", x.Name, err)
		}
		return types.NewBool(ok), nil
	case sql.FuncUniText:
		if len(args) != 2 {
			return types.Value{}, fmt.Errorf("exec: unitext takes (text, lang)")
		}
		lang, ok := types.LangFromName(args[1].Text())
		if !ok {
			return types.Value{}, fmt.Errorf("exec: unknown language %q", args[1].Text())
		}
		u := types.Compose(args[0].Text(), lang)
		u.Phoneme = ev.env.Phonetic().Convert(u, &ev.g2p)
		return types.NewUniText(u), nil
	case sql.FuncText:
		if args[0].IsNull() {
			return types.Null(), nil
		}
		return types.NewText(args[0].Text()), nil
	case sql.FuncLang:
		if args[0].IsNull() {
			return types.Null(), nil
		}
		if args[0].Kind() != types.KindUniText {
			return types.Value{}, fmt.Errorf("exec: lang() takes a UNITEXT value")
		}
		return types.NewText(args[0].UniText().Lang.String()), nil
	case sql.FuncPhoneme:
		if args[0].IsNull() {
			return types.Null(), nil
		}
		if args[0].Kind() != types.KindUniText {
			return types.Value{}, fmt.Errorf("exec: phoneme() takes a UNITEXT value")
		}
		return types.NewText(ev.env.Phonetic().Convert(args[0].UniText(), &ev.g2p)), nil
	default:
		return types.Value{}, fmt.Errorf("exec: function %s is not scalar", x.Kind)
	}
}

// Evaluator is the exported face of the expression evaluator, used by the
// engine for INSERT literal evaluation and by the outside-the-server client
// UDF library.
type Evaluator struct{ inner evaluator }

// NewEvaluator builds an Evaluator over the runtime environment.
func NewEvaluator(env Env) *Evaluator {
	return &Evaluator{inner: evaluator{env: env, stats: &RunStats{}}}
}

// Eval evaluates a compiled expression against a tuple (nil for
// constant-only expressions).
func (ev *Evaluator) Eval(e plan.Expr, t types.Tuple) (types.Value, error) {
	defer ev.inner.publishCounts()
	return ev.inner.eval(e, t)
}

// EvalBool evaluates a predicate with SQL semantics (NULL is false).
func (ev *Evaluator) EvalBool(e plan.Expr, t types.Tuple) (bool, error) {
	defer ev.inner.publishCounts()
	return ev.inner.evalBool(e, t)
}
