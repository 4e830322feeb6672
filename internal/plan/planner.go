package plan

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"github.com/mural-db/mural/internal/catalog"
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/types"
)

// Options are the optimizer switches. The enable_* settings mirror the
// PostgreSQL knobs the paper used to force alternative plans for the
// Example 5 / Figure 7 experiment ("we forced the optimizer to evaluate and
// run two different execution plans ... by enabling or disabling different
// optimizer options").
type Options struct {
	EnableHashJoin  bool
	EnableIndexScan bool // B-tree access paths
	EnableMTree     bool
	EnableMDI       bool
	EnableQGram     bool
	// ForceOrder, when non-empty, pins the join order to the given relation
	// aliases (left to right).
	ForceOrder []string
	// Workers > 1 enables parallel plans: exchange placement (place.go)
	// wraps eligible subtrees in a Gather over up to this many workers.
	Workers int
	// Threshold replaces a LEXEQUAL threshold the query leaves unspecified.
	Threshold int
}

// DefaultOptions enables everything, with the paper's default Ψ threshold.
func DefaultOptions() Options {
	return Options{EnableHashJoin: true, EnableIndexScan: true, EnableMTree: true, EnableMDI: true, EnableQGram: true, Threshold: 2}
}

// Planner builds physical plans.
type Planner struct {
	Cat  *catalog.Catalog
	Phon *phonetic.Registry
	Sem  SemEstimator // nil when no taxonomy is loaded
	// Feedback, when set, supplies observed selectivities from past
	// executions; established cells override histogram estimates.
	Feedback SelFeedback
	// Pages reports a table's heap size in pages (exec.Env's TablePages):
	// the exchange gate sizes a table that was never ANALYZEd by it (nil
	// assumes the default size).
	Pages func(table string) (int64, error)
	Opts  Options
}

// relation is one FROM-clause entry during planning.
type relation struct {
	ref    sql.TableRef
	table  *catalog.Table
	schema []ColInfo
	stats  Stats
}

// conjunct is one AND-factor of the combined WHERE/ON predicate.
type conjunct struct {
	expr sql.Expr
	rels map[string]bool // relation aliases referenced
	used bool
}

// Plan compiles a SELECT into a costed physical plan.
func (p *Planner) Plan(sel *sql.Select) (*Node, error) {
	// Resolve relations.
	rels := make([]*relation, 0, 1+len(sel.Joins))
	addRel := func(ref sql.TableRef) error {
		t, ok := p.Cat.TableByName(ref.Table)
		if !ok {
			return fmt.Errorf("plan: no such table %q", ref.Table)
		}
		r := &relation{ref: ref, table: t, stats: statsFor(p.Cat, ref.Table)}
		for _, c := range t.Columns {
			r.schema = append(r.schema, ColInfo{Rel: ref.Name(), Name: c.Name, Kind: c.Kind})
		}
		for _, existing := range rels {
			if existing.ref.Name() == ref.Name() {
				return fmt.Errorf("plan: duplicate relation name %q (use aliases)", ref.Name())
			}
		}
		rels = append(rels, r)
		return nil
	}
	if err := addRel(sel.From); err != nil {
		return nil, err
	}
	for _, j := range sel.Joins {
		if err := addRel(j.Table); err != nil {
			return nil, err
		}
	}

	fullSchema := make([]ColInfo, 0)
	for _, r := range rels {
		fullSchema = append(fullSchema, r.schema...)
	}

	// Gather conjuncts from WHERE and every ON clause.
	var conjuncts []*conjunct
	var collect func(e sql.Expr) error
	collect = func(e sql.Expr) error {
		if e == nil {
			return nil
		}
		if lg, ok := e.(*sql.Logical); ok && lg.Op == sql.OpAnd {
			if err := collect(lg.Left); err != nil {
				return err
			}
			return collect(lg.Right)
		}
		refs, err := referencedRels(e, rels)
		if err != nil {
			return err
		}
		conjuncts = append(conjuncts, &conjunct{expr: e, rels: refs})
		return nil
	}
	if err := collect(sel.Where); err != nil {
		return nil, err
	}
	for _, j := range sel.Joins {
		if err := collect(j.Cond); err != nil {
			return nil, err
		}
	}

	se := &selEstimator{
		cat:   p.Cat,
		stats: map[string]Stats{},
		phon:  p.Phon,
		sem:   p.Sem,
		defK:  p.Opts.Threshold,
	}
	se.tables = map[string]string{}
	se.fb = p.Feedback
	for _, r := range rels {
		se.stats[r.ref.Name()] = r.stats
		se.tables[r.ref.Name()] = r.table.Name
	}

	// Enumerate join orders and keep the cheapest plan.
	orders := p.joinOrders(rels)
	var best *Node
	for _, order := range orders {
		// Reset usage marks for this order.
		for _, c := range conjuncts {
			c.used = false
		}
		node, err := p.buildJoinTree(order, conjuncts, se)
		if err != nil {
			return nil, err
		}
		if best == nil || node.EstCost < best.EstCost {
			best = node
		}
	}
	if best == nil {
		return nil, fmt.Errorf("plan: no join order produced a plan")
	}
	// Aggregation / projection.
	node, err := p.finishSelect(best, sel, fullSchema, se)
	if err != nil {
		return nil, err
	}
	return Place(node, p.Opts.Workers, HeapRows(p.Cat, p.Pages)), nil
}

// referencedRels finds which relations an expression touches, validating
// column references as a side effect.
func referencedRels(e sql.Expr, rels []*relation) (map[string]bool, error) {
	out := make(map[string]bool)
	var err error
	var walk func(sql.Expr)
	walk = func(x sql.Expr) {
		switch n := x.(type) {
		case *sql.ColumnRef:
			found := 0
			for _, r := range rels {
				if n.Table != "" && n.Table != r.ref.Name() {
					continue
				}
				if r.table.ColumnIndex(n.Column) >= 0 {
					out[r.ref.Name()] = true
					found++
				}
			}
			if found == 0 && err == nil {
				err = fmt.Errorf("plan: unknown column %q", n.String())
			}
			if found > 1 && err == nil {
				err = fmt.Errorf("plan: ambiguous column %q", n.String())
			}
		case *sql.Compare:
			walk(n.Left)
			walk(n.Right)
		case *sql.Logical:
			walk(n.Left)
			walk(n.Right)
		case *sql.Not:
			walk(n.Inner)
		case *sql.LexEqual:
			walk(n.Left)
			walk(n.Right)
		case *sql.SemEqual:
			walk(n.Left)
			walk(n.Right)
		case *sql.FuncCall:
			for _, a := range n.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out, err
}

// joinOrders enumerates candidate relation orders: all permutations up to 4
// relations, a greedy order beyond, or the forced order.
func (p *Planner) joinOrders(rels []*relation) [][]*relation {
	if len(p.Opts.ForceOrder) > 0 {
		byName := make(map[string]*relation, len(rels))
		for _, r := range rels {
			byName[r.ref.Name()] = r
		}
		var order []*relation
		for _, name := range p.Opts.ForceOrder {
			if r, ok := byName[strings.ToLower(name)]; ok {
				order = append(order, r)
				delete(byName, r.ref.Name())
			}
		}
		for _, r := range rels { // append any unmentioned relations
			if _, left := byName[r.ref.Name()]; left {
				order = append(order, r)
			}
		}
		return [][]*relation{order}
	}
	if len(rels) == 1 {
		return [][]*relation{rels}
	}
	if len(rels) > 4 {
		// Greedy: smallest estimated relation first.
		order := append([]*relation(nil), rels...)
		for i := range order {
			min := i
			for j := i + 1; j < len(order); j++ {
				if order[j].stats.Rows < order[min].stats.Rows {
					min = j
				}
			}
			order[i], order[min] = order[min], order[i]
		}
		return [][]*relation{order}
	}
	var out [][]*relation
	perm(rels, 0, &out)
	return out
}

func perm(rels []*relation, i int, out *[][]*relation) {
	if i == len(rels) {
		cp := append([]*relation(nil), rels...)
		*out = append(*out, cp)
		return
	}
	for j := i; j < len(rels); j++ {
		rels[i], rels[j] = rels[j], rels[i]
		perm(rels, i+1, out)
		rels[i], rels[j] = rels[j], rels[i]
	}
}

// buildJoinTree builds a left-deep plan for the given relation order.
func (p *Planner) buildJoinTree(order []*relation, conjuncts []*conjunct, se *selEstimator) (*Node, error) {
	joined := map[string]bool{order[0].ref.Name(): true}
	cur, err := p.buildAccess(order[0], conjuncts, se)
	if err != nil {
		return nil, err
	}
	for _, rel := range order[1:] {
		right, err := p.buildAccess(rel, conjuncts, se)
		if err != nil {
			return nil, err
		}
		joined[rel.ref.Name()] = true
		cur, err = p.buildJoin(cur, right, rel, joined, conjuncts, se)
		if err != nil {
			return nil, err
		}
	}
	// Any conjunct never consumed (e.g. referencing no relation, or OR
	// trees spanning everything) becomes a final filter.
	cur, err = p.applyFilters(cur, conjuncts, se)
	if err != nil {
		return nil, err
	}
	// Every conjunct must have landed somewhere: a leftover means a
	// semantic error was deferred all the way up — surface it.
	for _, c := range conjuncts {
		if !c.used {
			comp := &Compiler{Schema: cur.Cols, DefaultThreshold: se.defK}
			if _, err := comp.Compile(c.expr); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("plan: predicate %s could not be placed", sql.ExprString(c.expr))
		}
	}
	return cur, nil
}

// buildAccess picks the cheapest access path for one relation given its
// single-relation conjuncts.
func (p *Planner) buildAccess(rel *relation, conjuncts []*conjunct, se *selEstimator) (*Node, error) {
	name := rel.ref.Name()
	var mine []*conjunct
	for _, c := range conjuncts {
		if c.used || len(c.rels) != 1 || !c.rels[name] {
			continue
		}
		mine = append(mine, c)
	}

	seq := &Node{
		Op:      OpSeqScan,
		Table:   rel.table.Name,
		Alias:   name,
		Cols:    rel.schema,
		EstRows: rel.stats.Rows,
		EstCost: rel.stats.Pages*SeqPageCost + rel.stats.Rows*CPUTupleCost,
	}

	candidates := []*accessCandidate{{node: seq, consumed: nil}}

	// Index paths: one per applicable (conjunct, index) pair.
	for _, c := range mine {
		for _, cand := range p.indexCandidates(rel, c, se) {
			candidates = append(candidates, cand)
		}
	}

	// Pick the cheapest candidate after charging residual filters.
	var best *Node
	var bestConsumed *conjunct
	for _, cand := range candidates {
		node := cand.node
		if best == nil || node.EstCost < best.EstCost {
			best = node
			bestConsumed = cand.consumed
		}
	}
	if bestConsumed != nil {
		bestConsumed.used = true
	}
	// Apply the remaining single-relation conjuncts as a filter.
	return p.applyFilters(best, mine, se)
}

type accessCandidate struct {
	node     *Node
	consumed *conjunct
}

// indexCandidates proposes index scans satisfying the conjunct.
func (p *Planner) indexCandidates(rel *relation, c *conjunct, se *selEstimator) []*accessCandidate {
	var out []*accessCandidate
	name := rel.ref.Name()
	comp := &Compiler{Schema: rel.schema, DefaultThreshold: se.defK}

	switch x := c.expr.(type) {
	case *sql.Compare:
		if !p.Opts.EnableIndexScan {
			return nil
		}
		ref, lit, op, ok := colConstCompare(x)
		if !ok {
			return nil
		}
		for _, ix := range p.Cat.IndexesOn(rel.table.Name, ref.Column) {
			if ix.Kind != sql.IndexBTree {
				continue
			}
			sel := se.selectivity(c.expr, rel.schema)
			rows := rel.stats.Rows * sel
			descent := 1 + math.Log2(rel.stats.Rows+1)/8 // ≈ tree height in pages
			cost := descent*RandomPageCost +
				sel*rel.stats.Pages*SeqPageCost + // leaf chain share
				rows*(RandomPageCost+CPUTupleCost) // heap fetches
			recheck, err := comp.Compile(c.expr)
			if err != nil {
				continue
			}
			node := &Node{
				Op:      OpBTreeScan,
				Table:   rel.table.Name,
				Alias:   name,
				Cols:    rel.schema,
				EstRows: math.Max(rows, 0.1),
				EstCost: cost,
				Cond:    recheck, // index rechecks: key encoding is inexact for ≐
				Index:   &IndexCond{Index: ix.Name, Col: rel.table.ColumnIndex(ref.Column)},
			}
			key, err := comp.Compile(&sql.Literal{Value: lit.Value})
			if err != nil {
				continue
			}
			switch op {
			case sql.OpEq:
				node.Index.EqKey = key
			case sql.OpLt, sql.OpLe:
				node.Index.Hi = key
			case sql.OpGt, sql.OpGe:
				node.Index.Lo = key
			default:
				continue // <> cannot use an index
			}
			out = append(out, &accessCandidate{node: node, consumed: c})
		}
	case *sql.LexEqual:
		ref, lit, ok := psiColConst(x)
		if !ok {
			return nil
		}
		recheck, err := comp.Compile(c.expr) // the recheck applies the IN-langs filter
		if err != nil {
			return nil
		}
		k := recheck.(*Psi).Threshold
		sel := se.selectivity(c.expr, rel.schema)
		rows := math.Max(rel.stats.Rows*sel, 0.1)
		lbar := rel.stats.avgKeyLen(ref.Column)
		n, pages, fetch := rel.stats.Rows, rel.stats.Pages, rows*(RandomPageCost+CPUTupleCost)
		// metric proposes a scan of index ix by operator op at its Table 3 cost.
		metric := func(op OpType, ix string, cost float64) {
			out = append(out, &accessCandidate{consumed: c, node: &Node{
				Op: op, Table: rel.table.Name, Alias: name, Cols: rel.schema, EstRows: rows, EstCost: cost,
				Cond:   recheck,
				Index:  &IndexCond{Index: ix, Probe: &Const{Val: lit.Value}, Threshold: k, Langs: x.Langs, Col: rel.table.ColumnIndex(ref.Column)},
				FbKind: FeedbackPsi, FbTable: rel.table.Name, FbBand: k, FbInput: n,
			}})
		}
		for _, ix := range p.Cat.IndexesOn(rel.table.Name, ref.Column) {
			switch {
			case ix.Kind == sql.IndexMTree && p.Opts.EnableMTree:
				// Ψ scan with approximate index: f(k)·(P_AI + P) I/O +
				// f(k)·n·k·l̄ CPU.
				f := MTreeFraction(k)
				metric(OpMTreeScan, ix.Name, f*(pages+pages)*RandomPageCost+f*n*float64(k)*lbar*PsiCharCost+fetch)
			case ix.Kind == sql.IndexQGram && p.Opts.EnableQGram:
				// In-memory inverted lists: no page I/O, candidate
				// verification dominates.
				cands := n * QGramFraction(k, 2, lbar)
				metric(OpQGramScan, ix.Name, cands*(float64(k)*lbar*PsiCharCost+CPUOperCost)+fetch)
			case ix.Kind == sql.IndexMDI && p.Opts.EnableMDI:
				f := MDIFraction(k, lbar)
				metric(OpMDIScan, ix.Name, f*pages*SeqPageCost+n*f*(float64(k)*lbar*PsiCharCost)+fetch)
			}
		}
	}
	return out
}

// colConstCompare matches col-op-const (either side), normalizing so the
// column is on the left.
func colConstCompare(x *sql.Compare) (*sql.ColumnRef, *sql.Literal, sql.CmpOp, bool) {
	if ref, ok := x.Left.(*sql.ColumnRef); ok {
		if lit, ok2 := x.Right.(*sql.Literal); ok2 {
			return ref, lit, x.Op, true
		}
	}
	if ref, ok := x.Right.(*sql.ColumnRef); ok {
		if lit, ok2 := x.Left.(*sql.Literal); ok2 {
			op := x.Op
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
			return ref, lit, op, true
		}
	}
	return nil, nil, 0, false
}

func psiColConst(x *sql.LexEqual) (*sql.ColumnRef, *sql.Literal, bool) {
	if ref, ok := x.Left.(*sql.ColumnRef); ok {
		if lit, ok2 := x.Right.(*sql.Literal); ok2 {
			return ref, lit, true
		}
	}
	if ref, ok := x.Right.(*sql.ColumnRef); ok {
		if lit, ok2 := x.Left.(*sql.Literal); ok2 {
			return ref, lit, true
		}
	}
	return nil, nil, false
}

// applyFilters wraps node in a Filter for every unused conjunct that
// references only columns available in node's schema, and marks them used.
func (p *Planner) applyFilters(node *Node, conjuncts []*conjunct, se *selEstimator) (*Node, error) {
	cond, took, sel, cost, err := conjoin(conjuncts, node.Cols, se)
	if err != nil || cond == nil {
		return node, err
	}
	for _, c := range took {
		c.used = true
	}
	f := filter(node, cond, sel, cost)
	// A filter evaluating exactly one Ψ/Ω predicate is a clean selectivity
	// observation point: its output over its child's output measures that
	// predicate alone. Mixed filters stay unannotated — their combined
	// ratio would poison the per-predicate cell.
	if len(took) == 1 {
		annotateFeedback(f, took[0].expr, node.Cols, se)
	}
	return f, nil
}

// conjoin compiles the unused conjuncts over schema and ANDs them in order:
// the condition (nil for none), the conjuncts it took, its selectivity and
// its cost per input row. A conjunct reading a column schema lacks is left
// for a wider schema; any other compile error is the query's.
func conjoin(conjuncts []*conjunct, schema []ColInfo, se *selEstimator) (cond Expr, took []*conjunct, sel, cost float64, err error) {
	comp := &Compiler{Schema: schema, DefaultThreshold: se.defK}
	var exprs []sql.Expr
	for _, c := range conjuncts {
		if c.used {
			continue
		}
		e, err := comp.Compile(c.expr)
		if errors.Is(err, ErrUnknownColumn) {
			continue
		}
		if err != nil {
			return nil, nil, 0, 0, err
		}
		if cond == nil {
			cond = e
		} else {
			cond = &AndOr{L: cond, R: e}
		}
		took = append(took, c)
		exprs = append(exprs, c.expr)
		cost += condOpCost(e, schema, se)
	}
	return cond, took, se.conjunctionSel(exprs, schema), cost, nil
}

// filter wraps node in a Filter evaluating cond, a conjunction of the given
// selectivity and per-row cost; a nil cond leaves node as it is.
func filter(node *Node, cond Expr, sel, cost float64) *Node {
	if cond == nil {
		return node
	}
	return &Node{
		Op:       OpFilter,
		Children: []*Node{node},
		Cols:     node.Cols,
		Cond:     cond,
		EstRows:  math.Max(node.EstRows*sel, 0.1),
		EstCost:  node.EstCost + node.EstRows*cost,
	}
}

// annotateFeedback stamps the feedback cell a single-predicate filter
// observes, when the predicate is a col-const Ψ or a col-anchored Ω.
func annotateFeedback(f *Node, e sql.Expr, schema []ColInfo, se *selEstimator) {
	switch x := e.(type) {
	case *sql.LexEqual:
		ref, _, ok := psiColConst(x)
		if !ok {
			return
		}
		tbl := se.tableOf(ref, schema)
		if tbl == "" {
			return
		}
		k := x.Threshold
		if k < 0 {
			k = se.defK
		}
		f.FbKind, f.FbTable, f.FbBand = FeedbackPsi, tbl, k
	case *sql.SemEqual:
		ref, ok := x.Left.(*sql.ColumnRef)
		if !ok {
			return
		}
		tbl := se.tableOf(ref, schema)
		if tbl == "" {
			return
		}
		f.FbKind, f.FbTable, f.FbBand = FeedbackOmega, tbl, 0
	}
}

// condOpCost prices one evaluation of a compiled condition, charging the Ψ
// and Ω operators their Table 3 CPU terms.
func condOpCost(e Expr, schema []ColInfo, se *selEstimator) float64 {
	cost := 0.0
	Walk(e, func(x Expr) {
		switch n := x.(type) {
		case *Cmp:
			cost += CPUOperCost
		case *AndOr, *Neg:
			cost += CPUOperCost / 4
		case *Like:
			cost += 4 * CPUOperCost
		case *Psi:
			lbar := 8.0
			if ci, ok := n.L.(*ColIdx); ok && ci.Idx < len(schema) {
				if st, ok2 := se.stats[schema[ci.Idx].Rel]; ok2 {
					lbar = st.avgKeyLen(schema[ci.Idx].Name)
				}
			}
			k := float64(n.Threshold)
			if k < 1 {
				k = 1
			}
			cost += k * lbar * PsiCharCost
		case *Omega:
			// Membership probe; closure materialization amortizes across
			// rows and is charged by the scan/join builders.
			cost += OmegaProbeCost
		case *Call:
			cost += CPUOperCost
		}
	})
	return cost
}

// buildJoin joins cur (left) with right (the access path of rel), choosing
// among hash join, Ψ join (NL or index probe), Ω join and generic NL join.
// Each candidate but the last evaluates one join conjunct itself and the
// others in a residual Filter above it; the generic NL join evaluates all.
func (p *Planner) buildJoin(left, right *Node, rel *relation, joined map[string]bool, conjuncts []*conjunct, se *selEstimator) (*Node, error) {
	name := rel.ref.Name()
	jointSchema := append(append([]ColInfo{}, left.Cols...), right.Cols...)
	comp := &Compiler{Schema: jointSchema, DefaultThreshold: se.defK}

	// Find join conjuncts: reference rel plus at least one already-joined
	// relation, and nothing outside.
	var joinConjs []*conjunct
	for _, c := range conjuncts {
		if c.used || !c.rels[name] || len(c.rels) < 2 {
			continue
		}
		ok := true
		for r := range c.rels {
			if !joined[r] {
				ok = false
				break
			}
		}
		if ok {
			joinConjs = append(joinConjs, c)
		}
	}

	// The generic NL join evaluates every join conjunct (a cross product when
	// there are none). Compiling them first fails the query on the first one
	// that does not compile, before any candidate is costed.
	all, took, allSel, allCost, err := conjoin(joinConjs, jointSchema, se)
	if err != nil {
		return nil, err
	}
	crossRows := left.EstRows * right.EstRows
	inner := &Node{Op: OpMaterialize, Children: []*Node{right}, Cols: right.Cols, EstRows: right.EstRows, EstCost: right.EstCost + right.EstRows*CPUTupleCost}
	var candidates []*Node
	// propose adds a join that evaluates c itself, under a Filter of the
	// other join conjuncts (which compiled above: conjoin cannot fail).
	propose := func(node *Node, c *conjunct) {
		c.used = true
		cond, _, sel, cost, _ := conjoin(joinConjs, jointSchema, se)
		c.used = false
		candidates = append(candidates, filter(node, cond, sel, cost))
	}

	// Hash join on an equality conjunct.
	if p.Opts.EnableHashJoin {
		for _, c := range joinConjs {
			cmpE, ok := c.expr.(*sql.Compare)
			if !ok || cmpE.Op != sql.OpEq {
				continue
			}
			lIdx, rIdx, ok := splitJoinCols(cmpE, left.Cols, right.Cols)
			if !ok {
				continue
			}
			rows := math.Max(crossRows*se.selectivity(c.expr, jointSchema), 0.1)
			propose(&Node{
				Op:        OpHashJoin,
				Children:  []*Node{left, right},
				Cols:      jointSchema,
				HashLeft:  lIdx,
				HashRight: rIdx,
				EstRows:   rows,
				EstCost: left.EstCost + right.EstCost +
					right.EstRows*HashBuildCost + left.EstRows*HashProbeCost +
					rows*CPUTupleCost,
			}, c)
		}
	}

	// Ψ join: its condition is the Ψ conjunct, over a column of each side.
	for _, c := range joinConjs {
		if _, ok := c.expr.(*sql.LexEqual); !ok {
			continue
		}
		cond, l, r, ok := colPair(comp, c)
		if !ok {
			continue
		}
		k := cond.(*Psi).Threshold
		rows := math.Max(crossRows*se.selectivity(c.expr, jointSchema), 0.1)
		lbar := (se.lbarOf(jointSchema, l) + se.lbarOf(jointSchema, r)) / 2

		// NL Ψ join (Table 3 join-no-index: P_l + P_r I/O, n_l·n_r·k·l̄ CPU).
		propose(&Node{
			Op:       OpPsiJoin,
			Children: []*Node{left, inner},
			Cols:     jointSchema,
			Cond:     cond,
			EstRows:  rows,
			EstCost: left.EstCost + right.EstCost +
				left.EstRows*right.EstRows*(float64(k)*lbar*PsiCharCost+MaterializeRowCost) +
				rows*CPUTupleCost,
		}, c)

		// Index Ψ join: probe an M-Tree on the inner column per outer row
		// (Table 3 join-with-index: P_l + n_l·f(k)·P_AI).
		innerCol := r
		if innerCol < len(left.Cols) {
			innerCol = l
		}
		if !p.Opts.EnableMTree || right.Op != OpSeqScan || innerCol < len(left.Cols) {
			continue
		}
		for _, ix := range p.Cat.IndexesOn(right.Table, jointSchema[innerCol].Name) {
			if ix.Kind != sql.IndexMTree {
				continue
			}
			f := MTreeFraction(k)
			idxPages := math.Max(right.EstRows/200, 1) // index page estimate
			propose(&Node{
				Op:       OpPsiIndexJoin,
				Children: []*Node{left, right},
				Cols:     jointSchema,
				Cond:     cond,
				Index:    &IndexCond{Index: ix.Name},
				EstRows:  rows,
				EstCost: left.EstCost +
					left.EstRows*(f*idxPages*RandomPageCost+f*right.EstRows*float64(k)*lbar*PsiCharCost) +
					rows*(RandomPageCost+CPUTupleCost),
			}, c)
		}
	}

	// Ω join: its condition is the Ω conjunct, over a column of each side
	// (Table 3: P_l + P_r I/O, Σ|TC| + n_l·n_r CPU). The closure sum counts
	// one closure per distinct RHS value: the outer rows when the RHS column
	// comes from the outer input, the inner rows otherwise.
	for _, c := range joinConjs {
		if _, ok := c.expr.(*sql.SemEqual); !ok {
			continue
		}
		cond, _, r, ok := colPair(comp, c)
		if !ok {
			continue
		}
		rows := math.Max(crossRows*se.selectivity(c.expr, jointSchema), 0.1)
		closureCost := 100 * OmegaNodeCost
		if p.Sem != nil {
			closureCost = p.Sem.AvgClosureFrac() * float64(p.Sem.TaxonomySize()) * OmegaNodeCost
		}
		roots := right.EstRows
		if r < len(left.Cols) {
			roots = left.EstRows
		}
		propose(&Node{
			Op:       OpOmegaJoin,
			Children: []*Node{left, inner},
			Cols:     jointSchema,
			Cond:     cond,
			EstRows:  rows,
			EstCost: left.EstCost + right.EstCost +
				roots*closureCost +
				crossRows*(OmegaProbeCost+MaterializeRowCost) +
				rows*CPUTupleCost,
		}, c)
	}

	rows := math.Max(crossRows*allSel, 0.1)
	candidates = append(candidates, &Node{
		Op:       OpNLJoin,
		Children: []*Node{left, inner},
		Cols:     jointSchema,
		Cond:     all,
		EstRows:  rows,
		EstCost: left.EstCost + right.EstCost +
			crossRows*(CPUOperCost+allCost+MaterializeRowCost) + rows*CPUTupleCost,
	})

	// The cheapest candidate evaluates every join conjunct, itself or in its
	// residual Filter.
	best := candidates[0]
	for _, cand := range candidates[1:] {
		if cand.EstCost < best.EstCost {
			best = cand
		}
	}
	for _, c := range took {
		c.used = true
	}
	return best, nil
}

// colPair compiles c, a Ψ or Ω conjunct, for a join: ok when both of its
// operands are columns, at positions l and r of the joint schema.
func colPair(comp *Compiler, c *conjunct) (cond Expr, l, r int, ok bool) {
	cond, err := comp.Compile(c.expr)
	var x, y Expr
	switch e := cond.(type) {
	case *Psi:
		x, y = e.L, e.R
	case *Omega:
		x, y = e.L, e.R
	}
	lc, okL := x.(*ColIdx)
	rc, okR := y.(*ColIdx)
	if err != nil || !okL || !okR {
		return nil, 0, 0, false
	}
	return cond, lc.Idx, rc.Idx, true
}

func (se *selEstimator) lbarOf(schema []ColInfo, idx int) float64 {
	if idx < 0 || idx >= len(schema) {
		return 8
	}
	st, ok := se.stats[schema[idx].Rel]
	if !ok {
		return 8
	}
	return st.avgKeyLen(schema[idx].Name)
}

func findCol(schema []ColInfo, ref *sql.ColumnRef) int {
	for i, ci := range schema {
		if ci.Name == ref.Column && (ref.Table == "" || ci.Rel == ref.Table) {
			return i
		}
	}
	return -1
}

// splitJoinCols resolves an equality conjunct to (left position, right
// position) across a join boundary.
func splitJoinCols(cmp *sql.Compare, leftCols, rightCols []ColInfo) (int, int, bool) {
	lRef, ok1 := cmp.Left.(*sql.ColumnRef)
	rRef, ok2 := cmp.Right.(*sql.ColumnRef)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	li := findCol(leftCols, lRef)
	ri := findCol(rightCols, rRef)
	if li >= 0 && ri >= 0 {
		return li, len(leftCols) + ri, true
	}
	li = findCol(leftCols, rRef)
	ri = findCol(rightCols, lRef)
	if li >= 0 && ri >= 0 {
		return li, len(leftCols) + ri, true
	}
	return 0, 0, false
}

// finishSelect layers aggregation, distinct, ordering, projection and limit
// on top of the join tree.
func (p *Planner) finishSelect(node *Node, sel *sql.Select, fullSchema []ColInfo, se *selEstimator) (*Node, error) {
	comp := &Compiler{Schema: node.Cols, DefaultThreshold: se.defK}

	hasAgg := len(sel.GroupBy) > 0
	for _, item := range sel.Items {
		if fc, ok := item.Expr.(*sql.FuncCall); ok && fc.Kind.IsAggregate() {
			hasAgg = true
		}
	}

	if hasAgg {
		agg := &Node{Op: OpAggregate, Children: []*Node{node}}
		var outCols []ColInfo
		var names []string
		for _, g := range sel.GroupBy {
			ce, err := comp.Compile(g)
			if err != nil {
				return nil, err
			}
			agg.GroupBy = append(agg.GroupBy, ce)
		}
		for _, item := range sel.Items {
			if item.Star {
				return nil, fmt.Errorf("plan: * cannot be mixed with aggregation")
			}
			name := item.Alias
			if fc, ok := item.Expr.(*sql.FuncCall); ok && fc.Kind.IsAggregate() {
				spec := AggSpec{Kind: fc.Kind}
				if !fc.Star {
					if len(fc.Args) != 1 {
						return nil, fmt.Errorf("plan: %s takes one argument", fc.Kind)
					}
					ce, err := comp.Compile(fc.Args[0])
					if err != nil {
						return nil, err
					}
					spec.Arg = ce
				} else if fc.Kind != sql.FuncCount {
					return nil, fmt.Errorf("plan: %s(*) is not valid", fc.Kind)
				}
				agg.Aggs = append(agg.Aggs, spec)
				if name == "" {
					name = sql.ExprString(item.Expr)
				}
				kind := types.KindInt
				if fc.Kind == sql.FuncSum || fc.Kind == sql.FuncAvg {
					kind = types.KindFloat
				}
				if fc.Kind == sql.FuncMin || fc.Kind == sql.FuncMax {
					kind = types.KindText // resolved at runtime
				}
				outCols = append(outCols, ColInfo{Name: name, Kind: kind})
				names = append(names, name)
				// Marker: aggregate outputs come after group columns; the
				// executor lays out [groupCols..., aggs...] and the
				// projection below references them positionally.
				agg.Projs = append(agg.Projs, nil)
			} else {
				// Must be one of the GROUP BY expressions.
				ce, err := comp.Compile(item.Expr)
				if err != nil {
					return nil, err
				}
				pos := -1
				for i, g := range agg.GroupBy {
					if ExprString(g) == ExprString(ce) {
						pos = i
						break
					}
				}
				if pos < 0 {
					return nil, fmt.Errorf("plan: %s must appear in GROUP BY", sql.ExprString(item.Expr))
				}
				if name == "" {
					name = sql.ExprString(item.Expr)
				}
				outCols = append(outCols, ColInfo{Name: name, Kind: ExprKind(ce)})
				names = append(names, name)
				agg.Projs = append(agg.Projs, &ColIdx{Idx: pos, Kind: ExprKind(ce)})
			}
		}
		agg.Cols = outCols
		agg.ColNames = names
		groups := 1.0
		if len(agg.GroupBy) > 0 {
			groups = math.Max(node.EstRows/10, 1)
		}
		agg.EstRows = groups
		agg.EstCost = node.EstCost + node.EstRows*(CPUOperCost*float64(1+len(agg.Aggs)))
		node = agg

		if sel.Distinct {
			node = distinctNode(node)
		}
		node, err := p.orderAndLimit(node, sel, se)
		if err != nil {
			return nil, err
		}
		return node, nil
	}

	// Non-aggregate: optional sort happens over the pre-projection schema
	// so ORDER BY can reference any input column.
	var err error
	node, err = p.orderOnly(node, sel, se)
	if err != nil {
		return nil, err
	}

	// Projection.
	proj := &Node{Op: OpProject, Children: []*Node{node}}
	var outCols []ColInfo
	var names []string
	for _, item := range sel.Items {
		if item.Star {
			for i, ci := range node.Cols {
				proj.Projs = append(proj.Projs, &ColIdx{Idx: i, Kind: ci.Kind, Display: ci.String()})
				outCols = append(outCols, ci)
				names = append(names, ci.Name)
			}
			continue
		}
		ce, err := comp.Compile(item.Expr)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			name = sql.ExprString(item.Expr)
		}
		proj.Projs = append(proj.Projs, ce)
		outCols = append(outCols, ColInfo{Name: name, Kind: ExprKind(ce)})
		names = append(names, name)
	}
	proj.Cols = outCols
	proj.ColNames = names
	proj.EstRows = node.EstRows
	proj.EstCost = node.EstCost + node.EstRows*CPUOperCost*float64(len(proj.Projs))
	node = proj

	if sel.Distinct {
		node = distinctNode(node)
	}
	if sel.Limit >= 0 {
		node = &Node{
			Op: OpLimit, Children: []*Node{node}, Cols: node.Cols, ColNames: node.ColNames,
			LimitN: sel.Limit, EstRows: math.Min(float64(sel.Limit), node.EstRows), EstCost: node.EstCost,
		}
	}
	return node, nil
}

func distinctNode(child *Node) *Node {
	return &Node{
		Op: OpDistinct, Children: []*Node{child}, Cols: child.Cols, ColNames: child.ColNames,
		EstRows: math.Max(child.EstRows/2, 1),
		EstCost: child.EstCost + child.EstRows*HashBuildCost,
	}
}

// orderOnly adds a Sort over the current (pre-projection) schema.
func (p *Planner) orderOnly(node *Node, sel *sql.Select, se *selEstimator) (*Node, error) {
	if len(sel.OrderBy) == 0 {
		return node, nil
	}
	comp := &Compiler{Schema: node.Cols, DefaultThreshold: se.defK}
	sort := &Node{Op: OpSort, Children: []*Node{node}, Cols: node.Cols, ColNames: node.ColNames}
	for _, key := range sel.OrderBy {
		// An ORDER BY key may name an output column of the node below
		// (aggregate results like count(*), projection aliases); try that
		// first, then compile against the input schema.
		var ce Expr
		rendered := sql.ExprString(key.Expr)
		for i, ci := range node.Cols {
			if ci.Name == rendered {
				ce = &ColIdx{Idx: i, Kind: ci.Kind, Display: ci.Name}
				break
			}
		}
		if ce == nil {
			var err error
			ce, err = comp.Compile(key.Expr)
			if err != nil {
				return nil, err
			}
		}
		sort.SortKeys = append(sort.SortKeys, ce)
		sort.SortDesc = append(sort.SortDesc, key.Desc)
	}
	n := math.Max(node.EstRows, 2)
	sort.EstRows = node.EstRows
	sort.EstCost = node.EstCost + n*math.Log2(n)*SortRowCost
	return sort, nil
}

// orderAndLimit adds Sort (over the output schema) and Limit for aggregate
// queries.
func (p *Planner) orderAndLimit(node *Node, sel *sql.Select, se *selEstimator) (*Node, error) {
	node, err := p.orderOnly(node, sel, se)
	if err != nil {
		return nil, err
	}
	if sel.Limit >= 0 {
		node = &Node{
			Op: OpLimit, Children: []*Node{node}, Cols: node.Cols, ColNames: node.ColNames,
			LimitN: sel.Limit, EstRows: math.Min(float64(sel.Limit), node.EstRows), EstCost: node.EstCost,
		}
	}
	return node, nil
}
