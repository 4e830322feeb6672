package plan

import (
	"encoding/hex"
	"slices"

	"github.com/mural-db/mural/internal/catalog"
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/types"
)

// Feedback cell kinds shared between the planner and the engine's
// observed-selectivity store.
const (
	FeedbackPsi   = "psi"
	FeedbackOmega = "omega"
)

// SelFeedback is the seam through which the estimator consults observed
// selectivities from past executions (Larch's observed-over-estimated
// template). The engine's obs.Feedback implements it; plan deliberately
// declares the interface itself so the dependency points engine → plan.
// Observed reports the established mean selectivity for a (kind, table,
// threshold band) cell, or ok=false while the cell has too few
// observations to trust.
type SelFeedback interface {
	Observed(kind, table string, band int) (float64, bool)
}

// selEstimator computes predicate selectivities from catalog statistics,
// implementing §3.4: end-biased histograms with threshold inflation for Ψ,
// closure-fraction estimates for Ω. When fb is set, established observed
// selectivities take precedence over the histogram estimates.
type selEstimator struct {
	cat    *catalog.Catalog
	stats  map[string]Stats  // by relation alias
	tables map[string]string // relation alias → catalog table name
	phon   *phonetic.Registry
	sem    SemEstimator
	fb     SelFeedback
	defK   int
}

// tableOf resolves a column reference to the catalog table providing it
// (empty when unknown), for keying feedback cells by table rather than by
// query-local alias.
func (se *selEstimator) tableOf(ref *sql.ColumnRef, schema []ColInfo) string {
	for _, ci := range schema {
		if ci.Name != ref.Column {
			continue
		}
		if ref.Table != "" && ci.Rel != ref.Table {
			continue
		}
		return se.tables[ci.Rel]
	}
	return ""
}

const (
	defaultEqSel    = 0.005
	defaultRangeSel = 0.33
	defaultSel      = 0.25
	defaultJoinSel  = 0.01
)

// colStats resolves a column reference to its stats (nil when unknown).
func (se *selEstimator) colStats(ref *sql.ColumnRef, schema []ColInfo) (*catalog.ColumnStats, Stats, bool) {
	for _, ci := range schema {
		if ci.Name != ref.Column {
			continue
		}
		if ref.Table != "" && ci.Rel != ref.Table {
			continue
		}
		st, ok := se.stats[ci.Rel]
		if !ok {
			return nil, Stats{}, false
		}
		cs := st.Cols[ref.Column]
		return cs, st, cs != nil
	}
	return nil, Stats{}, false
}

// constKey renders a literal the way ANALYZE keyed it: numerics via the
// order-preserving key encoding, text as-is (for UNITEXT histograms the
// phoneme form is produced by psiQueryPhoneme).
func constKey(v types.Value) (string, bool) {
	switch v.Kind() {
	case types.KindText, types.KindUniText:
		return v.Text(), true
	case types.KindInt, types.KindFloat:
		return hex.EncodeToString(types.KeyOf(v)), true
	case types.KindBool:
		return v.String(), true
	default:
		return "", false
	}
}

// psiQueryPhoneme converts a Ψ constant operand to phoneme space. A UNITEXT
// constant converts with its own language; a bare TEXT constant is read as
// the first listed language (or English), matching the paper's usage where
// the query name arrives "in one language".
func (se *selEstimator) psiQueryPhoneme(v types.Value, langs []types.LangID) (string, bool) {
	switch v.Kind() {
	case types.KindUniText:
		return se.phon.ToPhoneme(v.UniText()), true
	case types.KindText:
		lang := types.LangEnglish
		if len(langs) > 0 {
			lang = langs[0]
		}
		return se.phon.ToPhoneme(types.Compose(v.Text(), lang)), true
	default:
		return "", false
	}
}

// selectivity estimates the fraction of input rows satisfying the AST
// conjunct over the given schema. For join conjuncts the input is the cross
// product.
func (se *selEstimator) selectivity(e sql.Expr, schema []ColInfo) float64 {
	switch x := e.(type) {
	case *sql.Literal:
		if x.Value.Kind() == types.KindBool {
			if x.Value.Bool() {
				return 1
			}
			return 0
		}
		return defaultSel
	case *sql.Logical:
		l := se.selectivity(x.Left, schema)
		r := se.selectivity(x.Right, schema)
		if x.Op == sql.OpAnd {
			return l * r
		}
		return l + r - l*r
	case *sql.Not:
		return 1 - se.selectivity(x.Inner, schema)
	case *sql.Like:
		return 0.1 // PostgreSQL's patternsel-style default
	case *sql.Compare:
		return se.compareSel(x, schema)
	case *sql.LexEqual:
		return se.psiSel(x, schema)
	case *sql.SemEqual:
		return se.omegaSel(x, schema)
	default:
		return defaultSel
	}
}

// conjunctionSel estimates the conjunction of exprs: the product of their
// selectivities, as if independent, except that a lower and an upper bound on
// one column with a histogram are one range, estimated as lo + hi - 1 (the
// rule of PostgreSQL's clauselist_selectivity). Multiplied, the bounds of a
// two-row window in the middle of 256 ids would estimate a quarter of them.
func (se *selEstimator) conjunctionSel(exprs []sql.Expr, schema []ColInfo) float64 {
	type bounds struct {
		col    int
		lo, hi float64 // 1 while the side has no bound
	}
	var ranges []bounds
	sel := 1.0
	for _, e := range exprs {
		col, lower, ok := se.rangeBound(e, schema)
		if !ok {
			sel *= se.selectivity(e, schema)
			continue
		}
		i := slices.IndexFunc(ranges, func(b bounds) bool { return b.col == col })
		if i < 0 {
			ranges = append(ranges, bounds{col: col, lo: 1, hi: 1})
			i = len(ranges) - 1
		}
		if lower {
			ranges[i].lo *= se.selectivity(e, schema)
		} else {
			ranges[i].hi *= se.selectivity(e, schema)
		}
	}
	for _, b := range ranges {
		sel *= max(b.lo+b.hi-1, 0)
	}
	return sel
}

// rangeBound reports whether e is a column compared to a constant by <, <=, >
// or >=, the column having a histogram to estimate it by, and the column's
// position in schema and whether the constant bounds it from below.
func (se *selEstimator) rangeBound(e sql.Expr, schema []ColInfo) (col int, lower, ok bool) {
	x, ok := e.(*sql.Compare)
	if !ok {
		return 0, false, false
	}
	ref, lit, op, ok := colConstCompare(x)
	if !ok {
		return 0, false, false
	}
	if cs, _, ok := se.colStats(ref, schema); !ok || cs.Hist == nil {
		return 0, false, false
	}
	if _, ok := constKey(lit.Value); !ok {
		return 0, false, false
	}
	col = slices.IndexFunc(schema, func(ci ColInfo) bool {
		return ci.Name == ref.Column && (ref.Table == "" || ci.Rel == ref.Table)
	})
	switch op {
	case sql.OpGt, sql.OpGe:
		return col, true, true
	case sql.OpLt, sql.OpLe:
		return col, false, true
	}
	return 0, false, false
}

func (se *selEstimator) compareSel(x *sql.Compare, schema []ColInfo) float64 {
	colL, litL := x.Left.(*sql.ColumnRef)
	colR, litR := x.Right.(*sql.ColumnRef)
	switch {
	case litL && litR:
		// col op col: join-style equality or default.
		csL, _, okL := se.colStats(colL, schema)
		csR, _, okR := se.colStats(colR, schema)
		if x.Op == sql.OpEq && okL && okR && csL.Hist != nil && csR.Hist != nil {
			return csL.Hist.JoinSelectivity(csR.Hist)
		}
		if x.Op == sql.OpEq {
			return defaultJoinSel
		}
		return defaultRangeSel
	case litL || litR:
		ref := colL
		var lit *sql.Literal
		op := x.Op
		if litL {
			l, ok := x.Right.(*sql.Literal)
			if !ok {
				return defaultSel
			}
			lit = l
		} else {
			ref = colR
			l, ok := x.Left.(*sql.Literal)
			if !ok {
				return defaultSel
			}
			lit = l
			// Mirror the operator: const op col == col mirrored-op const.
			switch x.Op {
			case sql.OpLt:
				op = sql.OpGt
			case sql.OpLe:
				op = sql.OpGe
			case sql.OpGt:
				op = sql.OpLt
			case sql.OpGe:
				op = sql.OpLe
			}
		}
		cs, _, ok := se.colStats(ref, schema)
		key, keyOK := constKey(lit.Value)
		if !ok || cs.Hist == nil || !keyOK {
			switch op {
			case sql.OpEq:
				if se.unmeasuredKey(ref, schema) {
					return 1.0 / defaultRows
				}
				return defaultEqSel
			case sql.OpNe:
				return 1 - defaultEqSel
			default:
				return defaultRangeSel
			}
		}
		switch op {
		case sql.OpEq:
			return cs.Hist.EqSelectivity(key)
		case sql.OpNe:
			return 1 - cs.Hist.EqSelectivity(key)
		case sql.OpLt, sql.OpLe:
			return cs.Hist.RangeSelectivity("", key, false, true)
		default:
			return cs.Hist.RangeSelectivity(key, "", true, false)
		}
	default:
		return defaultSel
	}
}

// unmeasuredKey reports whether ref names a column with a B-tree index in a
// table ANALYZE has not measured. An equality on it is taken to select one
// row of the assumed table, as on a key: defaultEqSel would price a point
// read through the index above a scan of the whole table.
func (se *selEstimator) unmeasuredKey(ref *sql.ColumnRef, schema []ColInfo) bool {
	tbl := se.tableOf(ref, schema)
	return tbl != "" && se.cat.Stats(tbl) == nil && slices.ContainsFunc(se.cat.IndexesOn(tbl, ref.Column), func(ix *catalog.Index) bool {
		return ix.Kind == sql.IndexBTree
	})
}

func (se *selEstimator) psiSel(x *sql.LexEqual, schema []ColInfo) float64 {
	k := x.Threshold
	if k < 0 {
		k = se.defK
	}
	colL, isColL := x.Left.(*sql.ColumnRef)
	colR, isColR := x.Right.(*sql.ColumnRef)
	litL, isLitL := x.Left.(*sql.Literal)
	litR, isLitR := x.Right.(*sql.Literal)
	switch {
	case isColL && isColR:
		csL, _, okL := se.colStats(colL, schema)
		csR, _, okR := se.colStats(colR, schema)
		if okL && okR && csL.Hist != nil && csR.Hist != nil {
			return csL.Hist.ApproxJoinSelectivity(csR.Hist, k)
		}
		return defaultJoinSel * float64(k+1)
	case isColL && isLitR, isColR && isLitL:
		ref, lit := colL, litR
		if !isColL {
			ref, lit = colR, litL
		}
		// Observed-over-estimated: an established feedback cell for this
		// table and threshold band beats the histogram's approximation.
		if se.fb != nil {
			if tbl := se.tableOf(ref, schema); tbl != "" {
				if sel, ok := se.fb.Observed(FeedbackPsi, tbl, k); ok {
					return clamp01(sel)
				}
			}
		}
		cs, _, ok := se.colStats(ref, schema)
		ph, phOK := se.psiQueryPhoneme(lit.Value, x.Langs)
		if ok && cs.Hist != nil && phOK {
			return cs.Hist.ApproxSelectivity(ph, k)
		}
		return defaultEqSel * float64(k+1)
	default:
		return defaultEqSel * float64(k+1)
	}
}

func (se *selEstimator) omegaSel(x *sql.SemEqual, schema []ColInfo) float64 {
	if se.fb != nil {
		if ref, ok := x.Left.(*sql.ColumnRef); ok {
			if tbl := se.tableOf(ref, schema); tbl != "" {
				if sel, ok := se.fb.Observed(FeedbackOmega, tbl, 0); ok {
					return clamp01(sel)
				}
			}
		}
	}
	if se.sem == nil {
		return defaultSel
	}
	// Ω(lhs, rhs): the closure is computed on the RHS value (§3.4.2: exact
	// |TC(x)|/n when the concept is known, h̄-based fallback otherwise).
	if lit, ok := x.Right.(*sql.Literal); ok {
		lang := types.LangEnglish
		var text string
		switch lit.Value.Kind() {
		case types.KindUniText:
			u := lit.Value.UniText()
			text, lang = u.Text, u.Lang
		case types.KindText:
			// A bare TEXT concept reads as English; the IN clause names
			// output languages, not the concept's language.
			text = lit.Value.Text()
		}
		if text != "" {
			if frac := se.sem.ClosureFrac(text, lang); frac >= 0 {
				return clamp01(frac)
			}
		}
	}
	return clamp01(se.sem.AvgClosureFrac())
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
