package exec

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/mural-db/mural/internal/invariant"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

// Cursor is a running query: column names plus the row face of the operator
// tree. It pulls batches from the root operator and hands their rows out one
// at a time, recycling each batch once its last row is out; the tuples
// themselves stay valid — they own their memory.
type Cursor struct {
	Cols  []string
	Stats *RunStats
	src   BatchIter
	cur   *Batch
	pos   int
	// ev is the root evaluator of an executing plan (nil for static rows);
	// Close publishes what it counted.
	ev     *evaluator
	closed bool
}

// Next returns the next result row. Handing a row out is a cancellation
// checkpoint like any other row step: the operators below may have finished
// whole batches ahead of a slow consumer, and a statement must not go on
// delivering them (and holding its admission slot) past a cancel or deadline.
func (c *Cursor) Next() (types.Tuple, bool, error) {
	invariant.Assert(!c.closed, "exec: Next on a closed cursor")
	if err := c.ev.tick(); err != nil {
		return nil, false, err
	}
	for c.cur == nil || c.pos >= len(c.cur.Rows) {
		c.ev.putBatch(c.cur)
		c.cur = nil
		b, err := c.src.NextBatch()
		if err != nil || b == nil {
			return nil, false, err
		}
		c.cur, c.pos = b, 0
	}
	t := c.cur.Rows[c.pos]
	c.pos++
	if c.Stats != nil {
		c.Stats.RowsOut++
	}
	return t, true, nil
}

// Close releases the cursor, publishes the statement's remaining Ψ/Ω counts
// and releases its compiled predicates: every way a statement ends —
// drained, abandoned early, failed, canceled — ends here. Close is
// idempotent.
func (c *Cursor) Close() error {
	c.closed = true
	c.ev.putBatch(c.cur)
	c.cur = nil
	err := c.src.Close()
	if c.ev != nil {
		c.ev.publishCounts()
		c.ev.preds.release(c.ev.res)
	}
	return err
}

// All drains the cursor and closes it; a close failure surfaces in the
// returned error.
func (c *Cursor) All() (out []types.Tuple, err error) {
	defer func() { err = errors.Join(err, c.Close()) }()
	for {
		t, ok, err := c.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, t)
	}
}

// NewSliceCursor wraps pre-materialized rows as a Cursor; the server uses it
// to stream EXPLAIN output through the ordinary row protocol.
func NewSliceCursor(cols []string, rows []types.Tuple) *Cursor {
	return &Cursor{Cols: cols, src: &rowsIter{held: heldRows{rows: rows}}}
}

// Run instantiates the operator tree for a physical plan. es, when non-nil,
// collects per-operator statistics (EXPLAIN ANALYZE, feedback); res, when
// non-nil, carries the cancellation context and memory accountant that every
// checkpointed loop consults. Either may be nil and then costs nothing: no
// wrapper operators, no accounting.
func Run(env Env, node *plan.Node, es *ExecStats, res *Resources) (*Cursor, error) {
	if err := res.Err(); err != nil {
		return nil, err
	}
	stats := &RunStats{}
	ev := &evaluator{env: env, stats: stats, collector: es, res: res, pool: NewBatchPool(), preds: &stmtPreds{}}
	src, err := build(env, ev, node, nil)
	if err != nil {
		ev.preds.release(res)
		return nil, err
	}
	cols := node.ColNames
	if cols == nil {
		for _, ci := range node.Schema() {
			cols = append(cols, ci.Name)
		}
	}
	return &Cursor{Cols: cols, Stats: stats, src: src, ev: ev}, nil
}

// build instantiates one operator over its already-built children and, when
// a collector is active, wraps it so rows and wall time are attributed to its
// plan node. Every condition is bound first (predicate.go); a Ψ/Ω filter
// directly over a table scan then runs as the scan with a fused kernel
// (fuse.go), both plan nodes at once. A table scan attributes to its nodes
// itself.
//
// budget, when non-nil, is the number of rows a Limit above still wants. It
// reaches the operators that produce the Limit's rows through Filter, Project
// and Gather only (the Limit writes it, Gather workers read it: an atomic),
// and matters to the joins: one output row of a selective join can cost a
// whole pass over the inner side, so a join fills its batch no further than
// the budget (a scan's batch costs about a page either way).
func build(env Env, ev *evaluator, n *plan.Node, budget *atomic.Int64) (BatchIter, error) {
	var it BatchIter
	var err error
	switch n.Op {
	case plan.OpSeqScan:
		return buildScan(env, ev, n, nil, &pageKernel{ev: ev})
	case plan.OpGather:
		it, err = buildGather(env, ev, n, budget)
	case plan.OpBTreeScan, plan.OpMTreeScan, plan.OpMDIScan, plan.OpQGramScan:
		it, err = buildIndexScan(env, ev, n)
	case plan.OpNLJoin, plan.OpPsiJoin, plan.OpOmegaJoin:
		it, err = buildNLJoin(env, ev, n, budget)
	case plan.OpHashJoin, plan.OpPsiIndexJoin:
		it, err = buildLookupJoin(env, ev, n, budget)
	case plan.OpFilter, plan.OpProject, plan.OpMaterialize, plan.OpAggregate,
		plan.OpSort, plan.OpDistinct, plan.OpLimit:
		var cond plan.Expr
		if n.Op == plan.OpFilter {
			child := n.Children[0]
			rows := child.EstimatedRows()
			if k, ok := fusedShape(n.Cond, child.Schema()); ok && child.Op == plan.OpSeqScan && k.hash && k.keyed {
				rows = 0 // the fused kernel tests every row on its slot's label
			}
			if cond, err = ev.bind(n.Cond, rows); err != nil {
				return nil, err
			}
			if child.Op == plan.OpSeqScan {
				if kern := ev.fusedKernel(cond, child.Schema()); kern != nil {
					return buildScan(env, ev, child, n, kern)
				}
			}
		}
		switch n.Op {
		case plan.OpLimit:
			budget = new(atomic.Int64)
			budget.Store(n.LimitN)
		case plan.OpFilter, plan.OpProject:
		default:
			budget = nil
		}
		var child BatchIter
		if child, err = build(env, ev, n.Children[0], budget); err == nil {
			it = buildUnary(ev, n, child, cond, budget)
		}
	default:
		err = fmt.Errorf("exec: unsupported operator %s", n.Op)
	}
	if err != nil || ev.collector == nil {
		return it, err
	}
	return &batchStatsIter{child: it, st: ev.collector.Stats(n), timed: ev.collector.timed}, nil
}

// buildUnary instantiates a single-input operator over its built child; a
// Filter evaluates cond, its bound condition, and a Limit counts down the
// budget its subtree was built with.
func buildUnary(ev *evaluator, n *plan.Node, child BatchIter, cond plan.Expr, budget *atomic.Int64) BatchIter {
	switch n.Op {
	case plan.OpFilter:
		return &vectorFilterIter{ev: ev, child: child, cond: cond}
	case plan.OpProject:
		return &vectorProjectIter{ev: ev, child: child, projs: n.Projs}
	case plan.OpMaterialize:
		return &materializeIter{ev: ev, child: child}
	case plan.OpAggregate:
		return &aggregateIter{ev: ev, child: child, node: n}
	case plan.OpSort:
		return &sortIter{ev: ev, child: child, keys: n.SortKeys, desc: n.SortDesc}
	case plan.OpDistinct:
		return &distinctIter{ev: ev, child: child, seen: make(map[string]bool)}
	default:
		return &limitIter{child: child, rest: budget}
	}
}

// indexProbe runs the index lookup a scan node names and returns the
// matching RIDs, recording the pages visited on the run. A metric index
// searches for the constant phoneme of psi, the scan's compiled Ψ
// (metricSearch).
func indexProbe(env Env, ev *evaluator, n *plan.Node, psi *constPred) ([]storage.RID, error) {
	bound := func(e plan.Expr) ([]byte, error) {
		if e == nil {
			return nil, nil
		}
		v, err := ev.eval(e, nil)
		if err != nil {
			return nil, err
		}
		return types.KeyOf(v), nil
	}
	if n.Op == plan.OpBTreeScan {
		lo, err := bound(n.Index.EqKey)
		if err != nil {
			return nil, err
		}
		hi := lo
		if n.Index.Lo != nil {
			if lo, err = bound(n.Index.Lo); err != nil {
				return nil, err
			}
		}
		if n.Index.Hi != nil {
			if hi, err = bound(n.Index.Hi); err != nil {
				return nil, err
			}
			// Keys share the class tag; extend so every key with this
			// prefix is included (recheck trims overshoot).
			hi = append(hi, 0xFF)
		}
		rids, pages, err := env.IndexSearch(n.Index.Index, lo, hi)
		ev.stats.IndexPages += int64(pages)
		return rids, err
	}
	return ev.metricSearch(n.Index.Index, psi)
}

// buildIndexScan probes the index named by the plan node, fetches the heap
// tuples and replays the recheck condition. The fetched rows are handed on
// as they are (rowsIter): a point read copies nothing into a pooled batch.
func buildIndexScan(env Env, ev *evaluator, n *plan.Node) (BatchIter, error) {
	cond, err := ev.bind(n.Cond, n.EstimatedRows())
	if err != nil {
		return nil, err
	}
	var psi *constPred
	if n.Op != plan.OpBTreeScan {
		// The planner's recheck is the Ψ the index answers: probe with its
		// compiled constant, or compile one from the index condition.
		if psi, _ = cond.(*constPred); psi == nil || psi.op != "LEXEQUAL" {
			x := &plan.Psi{L: &plan.ColIdx{Idx: n.Index.Col, Kind: types.KindUniText}, R: n.Index.Probe,
				Threshold: n.Index.Threshold, Langs: n.Index.Langs}
			c, _ := ev.bindConst(x, x.L, x.R, 0)
			psi = c.(*constPred)
		}
	}
	rids, err := indexProbe(env, ev, n, psi)
	if err != nil {
		return nil, err
	}
	rows, err := env.FetchRIDs(n.Table, rids)
	if err != nil {
		return nil, err
	}
	src := &rowsIter{ev: ev, held: heldRows{rows: rows}}
	if ev.res != nil {
		// The probe materialized its result set up front; charge it for the
		// operator's lifetime (released by rowsIter.Close).
		src.bytes = tuplesBytes(rows)
		if err := ev.grow(src.bytes); err != nil {
			return nil, errors.Join(err, src.Close())
		}
	}
	if cond == nil {
		return src, nil
	}
	return &vectorFilterIter{ev: ev, child: src, cond: cond}, nil
}

// materializeIter caches its child's output (the Materialize of Figure 7) and
// hands it on like any source that holds its rows. It is also the inner side
// a nested-loops join passes over once per outer row: rescan starts the next
// pass. The cached rows are charged to the query and released on Close.
type materializeIter struct {
	ev     *evaluator
	child  BatchIter
	held   heldRows
	bytes  int64
	loaded bool
}

func (m *materializeIter) NextBatch() (*Batch, error) {
	if !m.loaded {
		err := m.ev.drainRows(m.child, func(t types.Tuple) error {
			m.held.rows = append(m.held.rows, t)
			if m.ev.res == nil {
				return nil
			}
			// Record the charge before checking it: Grow counts even a failing
			// charge, so Close must release it too.
			n := tupleBytes(t)
			m.bytes += n
			return m.ev.grow(n)
		})
		if err != nil {
			return nil, err
		}
		m.loaded = true
	}
	return m.held.next(), nil
}

// rescan makes the next NextBatch start over at the first cached row. Batches
// alias the cache, so only a consumer that leaves its batches' rows alone may
// rescan: the nested-loops join.
func (m *materializeIter) rescan() { m.held.pos = 0 }

func (m *materializeIter) Close() error {
	m.ev.release(m.bytes)
	m.bytes = 0
	return m.child.Close()
}

// rescannable is the inner side of a nested-loops join: a materializeIter,
// bare or inside the stats wrapper that counts its passes.
type rescannable interface {
	BatchIter
	rescan()
}

// joinedTuple concatenates left and right.
func joinedTuple(l, r types.Tuple) types.Tuple {
	out := make(types.Tuple, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

// buildNLJoin wires the nested-loops joins (plain, Ψ, Ω). A condition that is
// a lone Ψ or Ω over a column of each side runs hoisted (join.go). Any other
// is evaluated per pair over the joint schema, and the inner side is
// materialized and rescanned: by the plan's Materialize node when there is
// one, by an implicit one otherwise.
func buildNLJoin(env Env, ev *evaluator, n *plan.Node, budget *atomic.Int64) (BatchIter, error) {
	if outerCol, innerCol, outerLeft, ok := ev.hoistedOperands(n); ok {
		return buildHoistedJoin(env, ev, n, outerCol, innerCol, outerLeft, budget)
	}
	cond, err := ev.bind(n.Cond, n.EstimatedRows())
	if err != nil {
		return nil, err
	}
	outer, err := build(env, ev, n.Children[0], nil)
	if err != nil {
		return nil, err
	}
	inner, err := build(env, ev, n.Children[1], nil)
	if err != nil {
		return nil, errors.Join(err, outer.Close())
	}
	if n.Children[1].Op != plan.OpMaterialize {
		inner = &materializeIter{ev: ev, child: inner}
	}
	return &nlJoinIter{ev: ev, outer: outer, inner: inner.(rescannable), cond: cond, budget: budget}, nil
}

// batchLimit is how many rows a join puts in one output batch: BatchRows, or
// what the Limit above still wants when that is less.
func batchLimit(budget *atomic.Int64) int {
	if budget != nil {
		// A worker may look after the Limit was satisfied; it still owes its
		// caller a non-empty batch or exhaustion.
		return int(min(max(budget.Load(), 1), BatchRows))
	}
	return BatchRows
}

// nlJoinIter is the nested-loops join of a condition that does not hoist:
// every pair is joined, and the joined row is kept when cond passes it.
type nlJoinIter struct {
	ev     *evaluator
	outer  BatchIter
	inner  rescannable
	cond   plan.Expr
	budget *atomic.Int64

	ob     *Batch // outer batch being joined
	oi     int    // current outer row in ob
	ib     *Batch // inner batch of the current pass
	ri     int    // next inner row in ib
	inPass bool   // the current outer row's pass over the inner side has begun
	passed bool   // some pass has begun: the next one must rescan
	done   bool
}

func (j *nlJoinIter) NextBatch() (*Batch, error) {
	if j.done {
		return nil, nil
	}
	out := j.ev.getBatch()
	return j.ev.finishBatch(out, j.fill(out, batchLimit(j.budget)))
}

// fill joins outer rows against the inner side until out holds limit rows or
// the outer side is exhausted.
func (j *nlJoinIter) fill(out *Batch, limit int) error {
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
			if j.passed {
				j.inner.rescan()
			}
			j.inPass, j.passed = true, true
		}
		if j.ib == nil {
			var err error
			if j.ib, err = j.inner.NextBatch(); err != nil {
				return err
			}
			j.ri = 0
			if j.ib == nil {
				j.oi, j.inPass = j.oi+1, false
				continue
			}
		}
		for ; j.ri < len(j.ib.Rows) && len(out.Rows) < limit; j.ri++ {
			if err := j.ev.tick(); err != nil {
				return err
			}
			joined := joinedTuple(o, j.ib.Rows[j.ri])
			if j.cond != nil {
				ok, err := j.ev.evalBool(j.cond, joined)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			out.Rows = append(out.Rows, joined)
		}
		if j.ri == len(j.ib.Rows) {
			j.ev.putBatch(j.ib)
			j.ib = nil
		}
	}
	return nil
}

func (j *nlJoinIter) Close() error {
	j.ev.putBatch(j.ob)
	j.ev.putBatch(j.ib)
	j.ob, j.ib = nil, nil
	return errors.Join(j.outer.Close(), j.inner.Close())
}

// buildLookupJoin wires the joins that find an outer row's inner candidates
// by lookup: the hash join in a table built from its right input, whose pairs
// then pass its condition, and the Ψ index join in an M-Tree on the inner
// relation (which it never scans). The index join compiles each outer row's
// operand once (compile), probes with its phoneme (metricSearch) and
// rechecks every candidate with it (constPred.eval over the inner row).
func buildLookupJoin(env Env, ev *evaluator, n *plan.Node, budget *atomic.Int64) (BatchIter, error) {
	cond, err := ev.bind(n.Cond, n.EstimatedRows())
	if err != nil {
		return nil, err
	}
	leftWidth := len(n.Children[0].Schema())
	left, err := build(env, ev, n.Children[0], nil)
	if err != nil {
		return nil, err
	}
	if n.Op == plan.OpHashJoin {
		right, err := build(env, ev, n.Children[1], nil)
		if err != nil {
			return nil, errors.Join(err, left.Close())
		}
		h := &hashSide{ev: ev, src: right, col: n.HashRight - leftWidth, probeCol: n.HashLeft}
		return &lookupJoinIter{ev: ev, outer: left, hash: h, lookup: h.lookup, cond: cond, budget: budget}, nil
	}
	// The Ψ is over one column of each side; the outer row's operand probes.
	psi := n.Cond.(*plan.Psi)
	outerCol, innerCol, outerLeft := psi.L.(*plan.ColIdx).Idx, psi.R.(*plan.ColIdx).Idx, true
	if outerCol >= leftWidth {
		outerCol, innerCol, outerLeft = innerCol, outerCol, false
	}
	table := n.Children[1].Table
	col := &plan.ColIdx{Idx: innerCol - leftWidth}
	var p *constPred
	lookup := func(t types.Tuple) ([]types.Tuple, error) {
		p = ev.compile(psi, outerLeft, t[outerCol], nil, 0)
		p.col = col
		rids, err := ev.metricSearch(n.Index.Index, p)
		if err != nil {
			return nil, err
		}
		return env.FetchRIDs(table, rids)
	}
	recheck := func(in types.Tuple) (bool, error) { return p.eval(ev, in) }
	return &lookupJoinIter{ev: ev, outer: left, lookup: lookup, recheck: recheck, budget: budget}, nil
}

// hashSide is a hash join's build side: its input drained into a table keyed
// by the join column, charged to the query as it grows.
type hashSide struct {
	ev       *evaluator
	src      BatchIter
	col      int
	probeCol int
	table    map[string][]types.Tuple
	bytes    int64
}

func (h *hashSide) build() error {
	h.table = make(map[string][]types.Tuple)
	return h.ev.drainRows(h.src, func(t types.Tuple) error {
		v := t[h.col]
		if v.IsNull() {
			return nil
		}
		k := string(types.KeyOf(v))
		// Charge the build side as it grows: tuple, bucket key, slice slot.
		n := tupleBytes(t) + int64(len(k)) + 16
		h.bytes += n
		h.table[k] = append(h.table[k], t)
		return h.ev.grow(n)
	})
}

func (h *hashSide) lookup(t types.Tuple) ([]types.Tuple, error) {
	v := t[h.probeCol]
	if v.IsNull() {
		return nil, nil
	}
	return h.table[string(types.KeyOf(v))], nil
}

func (h *hashSide) Close() error {
	h.ev.release(h.bytes)
	h.bytes = 0
	return h.src.Close()
}

// lookupJoinIter joins each outer row with the inner rows lookup returns for
// it, keeping the pairs whose inner row passes recheck, when there is one,
// and whose joined row passes cond.
type lookupJoinIter struct {
	ev    *evaluator
	outer BatchIter
	// hash is the build side of a hash join (nil for an index join): built
	// before the first probe, closed with the join.
	hash    *hashSide
	lookup  func(outer types.Tuple) ([]types.Tuple, error)
	recheck func(inner types.Tuple) (bool, error)
	cond    plan.Expr
	budget  *atomic.Int64

	ob      *Batch      // outer batch being joined
	oi      int         // next outer row in ob
	cur     types.Tuple // outer row whose matches are being joined
	matches []types.Tuple
	mi      int
	done    bool
}

func (j *lookupJoinIter) NextBatch() (*Batch, error) {
	if j.done {
		return nil, nil
	}
	if j.hash != nil && j.hash.table == nil {
		if err := j.hash.build(); err != nil {
			return nil, err
		}
	}
	out := j.ev.getBatch()
	return j.ev.finishBatch(out, j.fill(out, batchLimit(j.budget)))
}

func (j *lookupJoinIter) fill(out *Batch, limit int) error {
	for len(out.Rows) < limit {
		if err := j.ev.tick(); err != nil {
			return err
		}
		if j.mi < len(j.matches) {
			in := j.matches[j.mi]
			j.mi++
			if j.recheck != nil {
				if ok, err := j.recheck(in); !ok {
					if err != nil {
						return err
					}
					continue
				}
			}
			joined := joinedTuple(j.cur, in)
			if j.cond != nil {
				pass, err := j.ev.evalBool(j.cond, joined)
				if err != nil {
					return err
				}
				if !pass {
					continue
				}
			}
			out.Rows = append(out.Rows, joined)
			continue
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
		j.cur = j.ob.Rows[j.oi]
		j.oi++
		var err error
		if j.matches, err = j.lookup(j.cur); err != nil {
			return err
		}
		j.mi = 0
	}
	return nil
}

func (j *lookupJoinIter) Close() error {
	j.ev.putBatch(j.ob)
	j.ob = nil
	err := j.outer.Close()
	if j.hash != nil {
		err = errors.Join(err, j.hash.Close())
	}
	return err
}

// aggState accumulates one aggregate for one group. SUM and AVG add ints in
// integer arithmetic and floats into an exact accumulator, so the result is a
// function of the multiset of inputs, not of the order a plan delivers them
// in (index vs heap order, Gather arrival order).
type aggState struct {
	count int64
	isum  int64
	fsum  exactSum
	min   types.Value
	max   types.Value
	any   bool
}

// addInt adds x to the int total. A total about to leave int64 moves into the
// exact float accumulator first, so it never wraps.
func (st *aggState) addInt(x int64) {
	s := st.isum + x
	if (s < st.isum) != (x < 0) {
		st.spillInts()
		s = x
	}
	st.isum = s
}

// spillInts moves the int total into the float accumulator as two halves,
// both exactly representable.
func (st *aggState) spillInts() {
	st.fsum.add(float64(st.isum >> 32 << 32))
	st.fsum.add(float64(st.isum & 0xFFFFFFFF))
	st.isum = 0
}

// sum is the group's SUM: the exact total of its int and float inputs,
// rounded once.
func (st *aggState) sum() float64 {
	st.spillInts()
	return st.fsum.result()
}

// aggGroup is one GROUP BY group: its key values and one state per aggregate.
type aggGroup struct {
	keys   []types.Value
	states []aggState
}

type aggregateIter struct {
	ev    *evaluator
	child BatchIter
	node  *plan.Node

	held  heldRows
	bytes int64
	run   bool
}

// accumulate folds one input row into its group.
func (a *aggregateIter) accumulate(groups map[string]*aggGroup, order *[]string, t types.Tuple) error {
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
		grp = &aggGroup{keys: keys, states: make([]aggState, len(a.node.Aggs))}
		// Charge the new group's resident state: map key, group keys,
		// one aggState per aggregate.
		b := int64(len(k)) + tupleBytes(keys) + 56*int64(len(a.node.Aggs)) + 48
		a.bytes += b
		if err := a.ev.grow(b); err != nil {
			return err
		}
		groups[k] = grp
		*order = append(*order, k)
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
		st.count++
		switch spec.Kind {
		case sql.FuncSum, sql.FuncAvg:
			switch v.Kind() {
			case types.KindInt:
				st.addInt(v.Int())
			case types.KindFloat:
				st.fsum.add(v.Float())
			default:
				return fmt.Errorf("exec: %s over %s values", spec.Kind, v.Kind())
			}
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
	return nil
}

// result is the finished value of one aggregate.
func (st *aggState) result(kind sql.FuncKind) types.Value {
	switch {
	case kind == sql.FuncCount:
		return types.NewInt(st.count)
	case kind == sql.FuncSum && st.count > 0:
		return types.NewFloat(st.sum())
	case kind == sql.FuncAvg && st.count > 0:
		return types.NewFloat(st.sum() / float64(st.count))
	case kind == sql.FuncMin && st.any:
		return st.min
	case kind == sql.FuncMax && st.any:
		return st.max
	}
	return types.Null()
}

func (a *aggregateIter) compute() error {
	groups := make(map[string]*aggGroup)
	var order []string
	err := a.ev.drainRows(a.child, func(t types.Tuple) error {
		return a.accumulate(groups, &order, t)
	})
	if err != nil {
		return err
	}
	// A global aggregate over zero rows still yields one row.
	if len(groups) == 0 && len(a.node.GroupBy) == 0 {
		groups[""] = &aggGroup{states: make([]aggState, len(a.node.Aggs))}
		order = append(order, "")
	}
	for _, k := range order {
		grp := groups[k]
		// Output per plan convention: Projs[i] == nil means "next aggregate
		// in order"; a ColIdx means "group key at that position".
		out := make(types.Tuple, len(a.node.Projs))
		aggIdx := 0
		for i, pe := range a.node.Projs {
			if pe == nil {
				out[i] = grp.states[aggIdx].result(a.node.Aggs[aggIdx].Kind)
				aggIdx++
				continue
			}
			out[i] = grp.keys[pe.(*plan.ColIdx).Idx]
		}
		a.held.rows = append(a.held.rows, out)
	}
	return nil
}

func (a *aggregateIter) NextBatch() (*Batch, error) {
	if !a.run {
		if err := a.compute(); err != nil {
			return nil, err
		}
		a.run = true
	}
	return a.held.next(), nil
}

func (a *aggregateIter) Close() error {
	a.ev.release(a.bytes)
	a.bytes = 0
	return a.child.Close()
}

type sortIter struct {
	ev    *evaluator
	child BatchIter
	keys  []plan.Expr
	desc  []bool

	held  heldRows
	bytes int64
	run   bool
}

// load drains the child, then orders the rows by their evaluated keys.
func (s *sortIter) load() error {
	var rows []types.Tuple
	var keyVals [][]types.Value
	err := s.ev.drainRows(s.child, func(t types.Tuple) error {
		kv := make([]types.Value, len(s.keys))
		for i, k := range s.keys {
			v, err := s.ev.eval(k, t)
			if err != nil {
				return err
			}
			kv[i] = v
		}
		rows = append(rows, t)
		keyVals = append(keyVals, kv)
		n := tupleBytes(t) + tupleBytes(kv)
		s.bytes += n
		return s.ev.grow(n)
	})
	if err != nil {
		return err
	}
	idx := make([]int, len(rows))
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
	s.held.rows = make([]types.Tuple, len(rows))
	for i, j := range idx {
		s.held.rows[i] = rows[j]
	}
	return nil
}

func (s *sortIter) NextBatch() (*Batch, error) {
	if !s.run {
		if err := s.load(); err != nil {
			return nil, err
		}
		s.run = true
	}
	return s.held.next(), nil
}

func (s *sortIter) Close() error {
	s.ev.release(s.bytes)
	s.bytes = 0
	return s.child.Close()
}

// distinctIter drops rows it has already seen.
type distinctIter struct {
	ev    *evaluator
	child BatchIter
	seen  map[string]bool
	bytes int64
}

func (d *distinctIter) NextBatch() (*Batch, error) {
	return d.ev.nextKept(d.child, func(t types.Tuple) (bool, error) {
		k := string(types.EncodeTuple(t))
		if d.seen[k] {
			return false, nil
		}
		d.seen[k] = true
		n := int64(len(k)) + 16
		d.bytes += n
		return true, d.ev.grow(n)
	})
}

func (d *distinctIter) Close() error {
	d.ev.release(d.bytes)
	d.bytes = 0
	return d.child.Close()
}

// limitIter passes the first n rows on and stops pulling its child. rest is
// what it still wants: the budget the joins below it read (build).
type limitIter struct {
	child BatchIter
	rest  *atomic.Int64
}

func (l *limitIter) NextBatch() (*Batch, error) {
	rest := l.rest.Load()
	if rest <= 0 {
		return nil, nil
	}
	b, err := l.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	if int64(len(b.Rows)) > rest {
		clear(b.Rows[rest:])
		b.Rows = b.Rows[:rest]
	}
	l.rest.Store(rest - int64(len(b.Rows)))
	return b, nil
}

func (l *limitIter) Close() error { return l.child.Close() }
