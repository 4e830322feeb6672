package exec

import (
	"errors"
	"fmt"
	"sort"

	"github.com/mural-db/mural/internal/invariant"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/types"
)

// Cursor is a running query: column names plus a tuple stream.
type Cursor struct {
	Cols  []string
	Stats *RunStats
	it    TupleIter
	// ev is the root evaluator of an executing plan (nil for static rows);
	// Close publishes what it counted.
	ev     *evaluator
	closed bool
}

// Next returns the next result row.
func (c *Cursor) Next() (types.Tuple, bool, error) {
	invariant.Assert(!c.closed, "exec: Next on a closed cursor")
	t, ok, err := c.it.Next()
	if ok && c.Stats != nil {
		c.Stats.RowsOut++
	}
	return t, ok, err
}

// Close releases the cursor and publishes the statement's remaining Ψ/Ω
// counts: every way a statement ends — drained, abandoned early, failed,
// canceled — ends here. Close is idempotent.
func (c *Cursor) Close() error {
	c.closed = true
	err := c.it.Close()
	if c.ev != nil {
		c.ev.publishCounts()
	}
	return err
}

// All drains the cursor and closes it; a close failure surfaces in the
// returned error.
func (c *Cursor) All() (out []types.Tuple, err error) {
	defer func() { err = errors.Join(err, c.Close()) }()
	for {
		t, ok, err := c.it.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		if c.Stats != nil {
			c.Stats.RowsOut++
		}
		out = append(out, t)
	}
}

// Run instantiates the operator tree for a physical plan.
func Run(env Env, node *plan.Node) (*Cursor, error) {
	return RunWithStats(env, node, nil)
}

// RunWithStats instantiates the operator tree with per-operator statistics
// collection (EXPLAIN ANALYZE). A nil collector makes this identical to Run:
// no wrapper iterators are interposed.
func RunWithStats(env Env, node *plan.Node, es *ExecStats) (*Cursor, error) {
	return RunGoverned(env, node, es, nil)
}

// build instantiates one operator and, when a collector is active, wraps it
// so rows and wall time are attributed to its plan node. Under vectorized
// execution eligible subtrees compile to a batch pipeline instead; the
// pipeline carries its own batch-level instrumentation, so its row adapter
// is returned unwrapped.
func build(env Env, ev *evaluator, n *plan.Node) (TupleIter, error) {
	if ev.vec {
		bi, ok, err := buildVec(env, ev, n)
		if err != nil {
			return nil, err
		}
		if ok {
			return &batchRowIter{ev: ev, src: bi}, nil
		}
	}
	it, err := buildOp(env, ev, n)
	if err != nil || ev.collector == nil {
		return it, err
	}
	return ev.collector.wrap(n, it), nil
}

// buildRowScan builds the row-at-a-time form of a table scan: the morsel (or
// striped) share inside a Gather worker, the whole table otherwise.
func buildRowScan(env Env, ev *evaluator, n *plan.Node) (TupleIter, error) {
	if n.Parallel && ev.par != nil {
		return ev.par.scanIter(env, ev, n)
	}
	it, err := env.ScanTable(n.Table)
	if err != nil || ev.res == nil {
		return it, err
	}
	return &govIter{child: it, ev: ev}, nil
}

func buildOp(env Env, ev *evaluator, n *plan.Node) (TupleIter, error) {
	switch n.Op {
	case plan.OpSeqScan:
		return buildRowScan(env, ev, n)
	case plan.OpGather:
		return buildGather(env, ev, n)
	case plan.OpRemote:
		return buildRemote(env, ev, n)
	case plan.OpBTreeScan, plan.OpMTreeScan, plan.OpMDIScan, plan.OpQGramScan:
		return buildIndexScan(env, ev, n)
	case plan.OpFilter:
		child, err := build(env, ev, n.Children[0])
		if err != nil {
			return nil, err
		}
		return &filterIter{child: unwrapGov(child), cond: n.Cond, ev: ev}, nil
	case plan.OpProject:
		child, err := build(env, ev, n.Children[0])
		if err != nil {
			return nil, err
		}
		return &projectIter{child: child, projs: n.Projs, ev: ev}, nil
	case plan.OpMaterialize:
		child, err := build(env, ev, n.Children[0])
		if err != nil {
			return nil, err
		}
		return &materializeIter{child: unwrapGov(child), ev: ev}, nil
	case plan.OpNLJoin:
		return buildNLJoin(env, ev, n)
	case plan.OpHashJoin:
		return buildHashJoin(env, ev, n)
	case plan.OpPsiJoin:
		return buildPsiJoin(env, ev, n)
	case plan.OpPsiIndexJoin:
		return buildPsiIndexJoin(env, ev, n)
	case plan.OpOmegaJoin:
		return buildOmegaJoin(env, ev, n)
	case plan.OpAggregate:
		return buildAggregate(env, ev, n)
	case plan.OpSort:
		return buildSort(env, ev, n)
	case plan.OpDistinct:
		child, err := build(env, ev, n.Children[0])
		if err != nil {
			return nil, err
		}
		return &distinctIter{child: unwrapGov(child), ev: ev, seen: make(map[string]bool)}, nil
	case plan.OpLimit:
		child, err := build(env, ev, n.Children[0])
		if err != nil {
			return nil, err
		}
		return &limitIter{child: child, n: n.LimitN}, nil
	default:
		return nil, fmt.Errorf("exec: unsupported operator %s", n.Op)
	}
}

// sliceIter iterates a materialized tuple slice.
type sliceIter struct {
	rows []types.Tuple
	pos  int
}

func (s *sliceIter) Next() (types.Tuple, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true, nil
}

func (s *sliceIter) Close() error { return nil }

// buildIndexScan probes the index named by the plan node, fetches the heap
// tuples and replays the recheck condition.
func buildIndexScan(env Env, ev *evaluator, n *plan.Node) (TupleIter, error) {
	var rows []types.Tuple
	switch n.Op {
	case plan.OpBTreeScan:
		var lo, hi []byte
		if n.Index.EqKey != nil {
			v, err := ev.eval(n.Index.EqKey, nil)
			if err != nil {
				return nil, err
			}
			key := types.KeyOf(v)
			lo, hi = key, key
		}
		if n.Index.Lo != nil {
			v, err := ev.eval(n.Index.Lo, nil)
			if err != nil {
				return nil, err
			}
			lo = types.KeyOf(v)
		}
		if n.Index.Hi != nil {
			v, err := ev.eval(n.Index.Hi, nil)
			if err != nil {
				return nil, err
			}
			hi = types.KeyOf(v)
			// Keys share the class tag; extend so every key with this
			// prefix is included (recheck trims overshoot).
			hi = append(hi, 0xFF)
		}
		rids, pages, err := env.IndexSearch(n.Index.Index, lo, hi)
		if err != nil {
			return nil, err
		}
		ev.stats.IndexPages += int64(pages)
		rows, err = env.FetchRIDs(n.Table, rids)
		if err != nil {
			return nil, err
		}
	case plan.OpMTreeScan, plan.OpMDIScan, plan.OpQGramScan:
		v, err := ev.eval(n.Index.Probe, nil)
		if err != nil {
			return nil, err
		}
		ph, _, ok := ev.psiOperand(v, n.Index.Langs)
		if !ok {
			return nil, fmt.Errorf("exec: index probe value must be text")
		}
		if n.Op == plan.OpMTreeScan {
			rids, pages, err := env.MTreeSearch(n.Index.Index, ph, n.Index.Threshold)
			if err != nil {
				return nil, err
			}
			ev.stats.IndexPages += int64(pages)
			rows, err = env.FetchRIDs(n.Table, rids)
			if err != nil {
				return nil, err
			}
		} else if n.Op == plan.OpQGramScan {
			rids, cands, err := env.QGramSearch(n.Index.Index, ph, n.Index.Threshold)
			if err != nil {
				return nil, err
			}
			ev.stats.MDICandidates += int64(cands)
			rows, err = env.FetchRIDs(n.Table, rids)
			if err != nil {
				return nil, err
			}
		} else {
			rids, pages, cands, err := env.MDISearch(n.Index.Index, ph, n.Index.Threshold)
			if err != nil {
				return nil, err
			}
			ev.stats.IndexPages += int64(pages)
			ev.stats.MDICandidates += int64(cands)
			rows, err = env.FetchRIDs(n.Table, rids)
			if err != nil {
				return nil, err
			}
		}
	}
	var it TupleIter = &sliceIter{rows: rows}
	if ev.res != nil {
		// The probe materialized its result set up front; charge it for the
		// iterator's lifetime (released by govIter.Close).
		b := tuplesBytes(rows)
		if err := ev.grow(b); err != nil {
			ev.release(b)
			return nil, err
		}
		it = &govIter{child: it, ev: ev, bytes: b}
	}
	if n.Cond != nil {
		it = &filterIter{child: it, cond: n.Cond, ev: ev}
	}
	return it, nil
}

type filterIter struct {
	child TupleIter
	cond  plan.Expr
	ev    *evaluator
}

func (f *filterIter) Next() (types.Tuple, bool, error) {
	for {
		if err := f.ev.tick(); err != nil {
			return nil, false, err
		}
		t, ok, err := f.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		pass, err := f.ev.evalBool(f.cond, t)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return t, true, nil
		}
	}
}

func (f *filterIter) Close() error { return f.child.Close() }

type projectIter struct {
	child TupleIter
	projs []plan.Expr
	ev    *evaluator
}

func (p *projectIter) Next() (types.Tuple, bool, error) {
	t, ok, err := p.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(types.Tuple, len(p.projs))
	for i, e := range p.projs {
		v, err := p.ev.eval(e, t)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}

func (p *projectIter) Close() error { return p.child.Close() }

// materializeIter caches its child's output; Rewind replays it, giving
// nested-loops joins a cheap inner rescan (the Materialize of Figure 7).
// Under governance (ev with Resources) the cached rows are charged to the
// query and released on Close.
type materializeIter struct {
	child  TupleIter
	ev     *evaluator
	rows   []types.Tuple
	bytes  int64
	loaded bool
	pos    int
}

func (m *materializeIter) load() error {
	if m.loaded {
		return nil
	}
	for {
		if err := m.ev.tick(); err != nil {
			return err
		}
		t, ok, err := m.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		b := tupleBytes(t)
		// Record the charge before checking it: Grow counts even a failing
		// charge, so Close must release it too.
		m.bytes += b
		if err := m.ev.grow(b); err != nil {
			return err
		}
		m.rows = append(m.rows, t)
	}
	m.loaded = true
	return m.child.Close()
}

func (m *materializeIter) Next() (types.Tuple, bool, error) {
	if err := m.load(); err != nil {
		return nil, false, err
	}
	if m.pos >= len(m.rows) {
		return nil, false, nil
	}
	t := m.rows[m.pos]
	m.pos++
	return t, true, nil
}

func (m *materializeIter) Rewind() { m.pos = 0 }

func (m *materializeIter) Close() error {
	m.ev.release(m.bytes)
	m.bytes = 0
	return m.child.Close()
}

// joinedTuple concatenates left and right.
func joinedTuple(l, r types.Tuple) types.Tuple {
	out := make(types.Tuple, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

func buildNLJoin(env Env, ev *evaluator, n *plan.Node) (TupleIter, error) {
	left, err := build(env, ev, n.Children[0])
	if err != nil {
		return nil, err
	}
	right, err := build(env, ev, n.Children[1])
	if err != nil {
		return nil, errors.Join(err, left.Close())
	}
	return &nlJoinIter{ev: ev, outer: left, inner: asRewindable(ev, right), cond: n.Cond}, nil
}

// asRewindable returns right as a rewindable iterator, materializing it when
// it cannot rescan on its own. A stats-wrapped Materialize stays rewindable
// (rewindStatsIter forwards Rewind), so the instrumented plan runs the same
// shape as the bare one. The evaluator (nil in some unit tests) lets the
// implicit Materialize charge its cached rows to the query's accountant.
func asRewindable(ev *evaluator, right TupleIter) rewindIter {
	if r, ok := right.(rewindIter); ok {
		return r
	}
	return &materializeIter{child: right, ev: ev}
}

type nlJoinIter struct {
	ev       *evaluator
	outer    TupleIter
	inner    rewindIter
	cond     plan.Expr
	curOuter types.Tuple
	started  bool
}

func (j *nlJoinIter) Next() (types.Tuple, bool, error) {
	for {
		if !j.started || j.curOuter == nil {
			t, ok, err := j.outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.curOuter = t
			j.inner.Rewind()
			j.started = true
		}
		for {
			if err := j.ev.tick(); err != nil {
				return nil, false, err
			}
			rt, ok, err := j.inner.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.curOuter = nil
				break
			}
			joined := joinedTuple(j.curOuter, rt)
			if j.cond != nil {
				pass, err := j.ev.evalBool(j.cond, joined)
				if err != nil {
					return nil, false, err
				}
				if !pass {
					continue
				}
			}
			return joined, true, nil
		}
	}
}

func (j *nlJoinIter) Close() error {
	return errors.Join(j.outer.Close(), j.inner.Close())
}

func buildHashJoin(env Env, ev *evaluator, n *plan.Node) (TupleIter, error) {
	left, err := build(env, ev, n.Children[0])
	if err != nil {
		return nil, err
	}
	right, err := build(env, ev, n.Children[1])
	if err != nil {
		return nil, errors.Join(err, left.Close())
	}
	leftWidth := len(n.Children[0].Schema())
	return &hashJoinIter{
		ev: ev, probe: left, buildSrc: right,
		probeCol: n.HashLeft, buildCol: n.HashRight - leftWidth,
		cond: n.Cond,
	}, nil
}

type hashJoinIter struct {
	ev       *evaluator
	probe    TupleIter
	buildSrc TupleIter
	probeCol int
	buildCol int
	cond     plan.Expr

	table   map[string][]types.Tuple
	bytes   int64
	cur     types.Tuple // current probe tuple
	matches []types.Tuple
	mi      int
}

func (j *hashJoinIter) init() error {
	if j.table != nil {
		return nil
	}
	j.table = make(map[string][]types.Tuple)
	for {
		if err := j.ev.tick(); err != nil {
			return err
		}
		t, ok, err := j.buildSrc.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		v := t[j.buildCol]
		if v.IsNull() {
			continue
		}
		k := string(types.KeyOf(v))
		// Charge the build side as it grows: tuple, bucket key, slice slot.
		b := tupleBytes(t) + int64(len(k)) + 16
		j.bytes += b
		if err := j.ev.grow(b); err != nil {
			return err
		}
		j.table[k] = append(j.table[k], t)
	}
	return j.buildSrc.Close()
}

func (j *hashJoinIter) Next() (types.Tuple, bool, error) {
	if err := j.init(); err != nil {
		return nil, false, err
	}
	for {
		if err := j.ev.tick(); err != nil {
			return nil, false, err
		}
		for j.mi < len(j.matches) {
			rt := j.matches[j.mi]
			j.mi++
			joined := joinedTuple(j.cur, rt)
			if j.cond != nil {
				pass, err := j.ev.evalBool(j.cond, joined)
				if err != nil {
					return nil, false, err
				}
				if !pass {
					continue
				}
			}
			return joined, true, nil
		}
		t, ok, err := j.probe.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.cur = t
		v := t[j.probeCol]
		if v.IsNull() {
			j.matches, j.mi = nil, 0
			continue
		}
		j.matches = j.table[string(types.KeyOf(v))]
		j.mi = 0
	}
}

func (j *hashJoinIter) Close() error {
	j.ev.release(j.bytes)
	j.bytes = 0
	return errors.Join(j.probe.Close(), j.buildSrc.Close())
}

// buildPsiJoin wires the nested-loops Ψ join: the condition is a synthetic
// Psi expression over the joint schema.
func buildPsiJoin(env Env, ev *evaluator, n *plan.Node) (TupleIter, error) {
	cond := &plan.Psi{
		L:         &plan.ColIdx{Idx: n.PsiLeftCol},
		R:         &plan.ColIdx{Idx: n.PsiRightCol},
		Threshold: n.PsiThreshold,
		Langs:     n.PsiLangs,
	}
	full := cond
	var fullCond plan.Expr = full
	if n.Cond != nil {
		fullCond = &plan.AndOr{L: full, R: n.Cond}
	}
	left, err := build(env, ev, n.Children[0])
	if err != nil {
		return nil, err
	}
	right, err := build(env, ev, n.Children[1])
	if err != nil {
		return nil, errors.Join(err, left.Close())
	}
	return &nlJoinIter{ev: ev, outer: left, inner: asRewindable(ev, right), cond: fullCond}, nil
}

// buildPsiIndexJoin probes an M-Tree on the inner relation per outer row.
func buildPsiIndexJoin(env Env, ev *evaluator, n *plan.Node) (TupleIter, error) {
	left, err := build(env, ev, n.Children[0])
	if err != nil {
		return nil, err
	}
	leftWidth := len(n.Children[0].Schema())
	outerCol := n.PsiLeftCol
	if outerCol >= leftWidth {
		outerCol = n.PsiRightCol
	}
	recheck := &plan.Psi{
		L:         &plan.ColIdx{Idx: n.PsiLeftCol},
		R:         &plan.ColIdx{Idx: n.PsiRightCol},
		Threshold: n.PsiThreshold,
		Langs:     n.PsiLangs,
	}
	return &psiIndexJoinIter{
		ev:        ev,
		env:       env,
		outer:     left,
		index:     n.Index.Index,
		table:     n.Children[1].Table,
		outerCol:  outerCol,
		threshold: n.PsiThreshold,
		langs:     n.PsiLangs,
		recheck:   recheck,
		cond:      n.Cond,
	}, nil
}

type psiIndexJoinIter struct {
	ev        *evaluator
	env       Env
	outer     TupleIter
	index     string
	table     string
	outerCol  int
	threshold int
	langs     []types.LangID
	recheck   plan.Expr
	cond      plan.Expr

	cur     types.Tuple
	matches []types.Tuple
	mi      int
}

func (j *psiIndexJoinIter) Next() (types.Tuple, bool, error) {
	for {
		if err := j.ev.tick(); err != nil {
			return nil, false, err
		}
		for j.mi < len(j.matches) {
			rt := j.matches[j.mi]
			j.mi++
			joined := joinedTuple(j.cur, rt)
			pass, err := j.ev.evalBool(j.recheck, joined)
			if err != nil {
				return nil, false, err
			}
			if !pass {
				continue
			}
			if j.cond != nil {
				p2, err := j.ev.evalBool(j.cond, joined)
				if err != nil {
					return nil, false, err
				}
				if !p2 {
					continue
				}
			}
			return joined, true, nil
		}
		t, ok, err := j.outer.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.cur = t
		v := t[j.outerCol]
		if v.IsNull() {
			j.matches, j.mi = nil, 0
			continue
		}
		ph, _, okp := j.ev.psiOperand(v, j.langs)
		if !okp {
			return nil, false, fmt.Errorf("exec: Ψ join operand must be text")
		}
		rids, pages, err := j.env.MTreeSearch(j.index, ph, j.threshold)
		if err != nil {
			return nil, false, err
		}
		j.ev.stats.IndexPages += int64(pages)
		rows, err := j.env.FetchRIDs(j.table, rids)
		if err != nil {
			return nil, false, err
		}
		j.matches, j.mi = rows, 0
	}
}

func (j *psiIndexJoinIter) Close() error { return j.outer.Close() }

// buildOmegaJoin wires the Ω join with the closure-memoizing matcher; the
// planner already arranged the outer side to carry the closure roots when
// profitable (RHS-outer, §4.3).
func buildOmegaJoin(env Env, ev *evaluator, n *plan.Node) (TupleIter, error) {
	cond := &plan.Omega{
		L:     &plan.ColIdx{Idx: n.OmegaLeftCol},
		R:     &plan.ColIdx{Idx: n.OmegaRightCol},
		Langs: n.OmegaLangs,
	}
	var fullCond plan.Expr = cond
	if n.Cond != nil {
		fullCond = &plan.AndOr{L: cond, R: n.Cond}
	}
	left, err := build(env, ev, n.Children[0])
	if err != nil {
		return nil, err
	}
	right, err := build(env, ev, n.Children[1])
	if err != nil {
		return nil, errors.Join(err, left.Close())
	}
	return &nlJoinIter{ev: ev, outer: left, inner: asRewindable(ev, right), cond: fullCond}, nil
}

func buildAggregate(env Env, ev *evaluator, n *plan.Node) (TupleIter, error) {
	child, err := build(env, ev, n.Children[0])
	if err != nil {
		return nil, err
	}
	return &aggregateIter{ev: ev, child: unwrapGov(child), node: n}, nil
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count int64
	sum   float64
	min   types.Value
	max   types.Value
	any   bool
}

type aggregateIter struct {
	ev    *evaluator
	child TupleIter
	node  *plan.Node

	out   []types.Tuple
	bytes int64
	pos   int
	run   bool
}

func (a *aggregateIter) compute() error {
	type group struct {
		keys   []types.Value
		states []aggState
	}
	groups := make(map[string]*group)
	var order []string

	for {
		if err := a.ev.tick(); err != nil {
			return err
		}
		t, ok, err := a.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		keys := make([]types.Value, len(a.node.GroupBy))
		keyBytes := []byte{}
		for i, g := range a.node.GroupBy {
			v, err := a.ev.eval(g, t)
			if err != nil {
				return err
			}
			keys[i] = v
			keyBytes = types.AppendValue(keyBytes, v)
		}
		k := string(keyBytes)
		grp, ok := groups[k]
		if !ok {
			grp = &group{keys: keys, states: make([]aggState, len(a.node.Aggs))}
			// Charge the new group's resident state: map key, group keys,
			// one aggState per aggregate.
			b := int64(len(k)) + tupleBytes(keys) + 56*int64(len(a.node.Aggs)) + 48
			a.bytes += b
			if err := a.ev.grow(b); err != nil {
				return err
			}
			groups[k] = grp
			order = append(order, k)
		}
		for i, spec := range a.node.Aggs {
			st := &grp.states[i]
			if spec.Arg == nil { // COUNT(*)
				st.count++
				continue
			}
			v, err := a.ev.eval(spec.Arg, t)
			if err != nil {
				return err
			}
			if v.IsNull() {
				continue
			}
			if spec.Merge && spec.Kind == sql.FuncCount {
				// Coordinator half of a distributed COUNT: sum the shards'
				// int64 partial counts instead of counting input rows. The
				// sum stays in integer arithmetic, so the merged COUNT is
				// bit-identical to the single-node answer.
				st.count += v.Int()
				st.any = true
				continue
			}
			st.count++
			switch spec.Kind {
			case sql.FuncSum, sql.FuncAvg:
				if k := v.Kind(); k != types.KindInt && k != types.KindFloat {
					return fmt.Errorf("exec: %s over %s values", spec.Kind, k)
				}
				st.sum += v.Float()
			case sql.FuncMin:
				if !st.any || types.Compare(v, st.min) < 0 {
					st.min = v
				}
			case sql.FuncMax:
				if !st.any || types.Compare(v, st.max) > 0 {
					st.max = v
				}
			}
			st.any = true
		}
	}
	if err := a.child.Close(); err != nil {
		return err
	}
	// A global aggregate over zero rows still yields one row.
	if len(groups) == 0 && len(a.node.GroupBy) == 0 {
		grp := &group{states: make([]aggState, len(a.node.Aggs))}
		groups[""] = grp
		order = append(order, "")
	}

	for _, k := range order {
		grp := groups[k]
		aggVal := func(i int) types.Value {
			st := grp.states[i]
			switch a.node.Aggs[i].Kind {
			case sql.FuncCount:
				return types.NewInt(st.count)
			case sql.FuncSum:
				if st.count == 0 {
					return types.Null()
				}
				return types.NewFloat(st.sum)
			case sql.FuncAvg:
				if st.count == 0 {
					return types.Null()
				}
				return types.NewFloat(st.sum / float64(st.count))
			case sql.FuncMin:
				if !st.any {
					return types.Null()
				}
				return st.min
			case sql.FuncMax:
				if !st.any {
					return types.Null()
				}
				return st.max
			default:
				return types.Null()
			}
		}
		// Output per plan convention: Projs[i] == nil means "next aggregate
		// in order"; a ColIdx means "group key at that position".
		out := make(types.Tuple, len(a.node.Projs))
		aggIdx := 0
		for i, pe := range a.node.Projs {
			if pe == nil {
				out[i] = aggVal(aggIdx)
				aggIdx++
				continue
			}
			ci := pe.(*plan.ColIdx)
			out[i] = grp.keys[ci.Idx]
		}
		a.out = append(a.out, out)
	}
	return nil
}

func (a *aggregateIter) Next() (types.Tuple, bool, error) {
	if !a.run {
		if err := a.compute(); err != nil {
			return nil, false, err
		}
		a.run = true
	}
	if a.pos >= len(a.out) {
		return nil, false, nil
	}
	t := a.out[a.pos]
	a.pos++
	return t, true, nil
}

func (a *aggregateIter) Close() error {
	a.ev.release(a.bytes)
	a.bytes = 0
	return a.child.Close()
}

func buildSort(env Env, ev *evaluator, n *plan.Node) (TupleIter, error) {
	child, err := build(env, ev, n.Children[0])
	if err != nil {
		return nil, err
	}
	return &sortIter{ev: ev, child: unwrapGov(child), keys: n.SortKeys, desc: n.SortDesc}, nil
}

type sortIter struct {
	ev    *evaluator
	child TupleIter
	keys  []plan.Expr
	desc  []bool

	rows  []types.Tuple
	bytes int64
	pos   int
	run   bool
}

func (s *sortIter) Next() (types.Tuple, bool, error) {
	if !s.run {
		var keyVals [][]types.Value
		for {
			if err := s.ev.tick(); err != nil {
				return nil, false, err
			}
			t, ok, err := s.child.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			kv := make([]types.Value, len(s.keys))
			for i, k := range s.keys {
				v, err := s.ev.eval(k, t)
				if err != nil {
					return nil, false, err
				}
				kv[i] = v
			}
			b := tupleBytes(t) + tupleBytes(kv)
			s.bytes += b
			if err := s.ev.grow(b); err != nil {
				return nil, false, err
			}
			s.rows = append(s.rows, t)
			keyVals = append(keyVals, kv)
		}
		if err := s.child.Close(); err != nil {
			return nil, false, err
		}
		idx := make([]int, len(s.rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for i := range s.keys {
				c := types.Compare(keyVals[idx[a]][i], keyVals[idx[b]][i])
				if c == 0 {
					continue
				}
				if s.desc[i] {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		sorted := make([]types.Tuple, len(s.rows))
		for i, j := range idx {
			sorted[i] = s.rows[j]
		}
		s.rows = sorted
		s.run = true
	}
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true, nil
}

func (s *sortIter) Close() error {
	s.ev.release(s.bytes)
	s.bytes = 0
	return s.child.Close()
}

type distinctIter struct {
	child TupleIter
	ev    *evaluator
	seen  map[string]bool
	bytes int64
}

func (d *distinctIter) Next() (types.Tuple, bool, error) {
	for {
		if err := d.ev.tick(); err != nil {
			return nil, false, err
		}
		t, ok, err := d.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		k := string(types.EncodeTuple(t))
		if d.seen[k] {
			continue
		}
		b := int64(len(k)) + 16
		d.bytes += b
		if err := d.ev.grow(b); err != nil {
			return nil, false, err
		}
		d.seen[k] = true
		return t, true, nil
	}
}

func (d *distinctIter) Close() error {
	d.ev.release(d.bytes)
	d.bytes = 0
	return d.child.Close()
}

type limitIter struct {
	child TupleIter
	n     int64
	done  int64
}

func (l *limitIter) Next() (types.Tuple, bool, error) {
	if l.done >= l.n {
		return nil, false, nil
	}
	t, ok, err := l.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.done++
	return t, true, nil
}

func (l *limitIter) Close() error { return l.child.Close() }
