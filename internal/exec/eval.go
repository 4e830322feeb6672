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
	// preds is the statement's compiled Ψ/Ω predicates (predicate.go),
	// shared with its Gather workers; op is the row operand every reader
	// refills and matches against them, one row or record at a time. It is
	// written on every row, so a worker's sits in its padded workerCell.
	preds *stmtPreds
	op    operand
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
		return boolValue(ev.evalPsi(x, t))
	case *plan.Omega:
		return boolValue(ev.evalOmega(x, t))
	case *constPred:
		return boolValue(x.eval(ev, t))
	case *plan.Call:
		return ev.evalCall(x, t)
	default:
		return types.Value{}, fmt.Errorf("exec: unsupported expression %T", e)
	}
}

func boolValue(ok bool, err error) (types.Value, error) { return types.NewBool(ok), err }

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
		u.Phoneme = ev.env.G2P().Registry().Convert(u, &ev.g2p)
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
		return types.NewText(ev.env.G2P().Registry().Convert(args[0].UniText(), &ev.g2p)), nil
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
