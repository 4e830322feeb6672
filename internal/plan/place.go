package plan

import (
	"math"

	"github.com/mural-db/mural/internal/catalog"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/types"
)

// Exchange placement: the one pass that decides where a chosen serial plan's
// work runs. It walks the plan top-down once and at each node either
//
//   - ships it: with two or more shards, the largest subtree a shard can run
//     as it is (pushable) becomes one Remote fragment per shard merged by a
//     Gather, and an aggregate over such a subtree splits into per-shard
//     partials and a coordinator merge. Shipping is not cost-gated: a sharded
//     table's rows live only on the shards, the coordinator's heaps are empty
//     routers;
//   - gathers it: without shards, a scan, a filter chain over one, or a join
//     whose outer input is one runs on up to Workers goroutines, each over
//     disjoint morsels of the driving scan's table, when that table is large
//     enough for the per-row work (Table 3: Ψ/Ω cost k·l̄ character operations
//     a tuple) to pay for the exchange. A Ψ/Ω join whose outer input is too
//     small to split is driven by the scan under its materialized inner
//     input instead: every worker re-runs the outer input; or
//   - recurses into its children.
//
// An exchange is final: the pass never recurses below a Gather or a Remote,
// so a pipeline holds at most one. The coordinator runs the pass in
// Planner.Plan and a shard runs it again, without shards, over the fragment it
// decodes: the coordinator never ships a Gather, the shard decides its own,
// sized by its own tables. Every consumer above a Gather is
// order-insensitive (Aggregate, Sort and Distinct drain their input; a LIMIT
// without ORDER BY returns arbitrary rows), so a Gather merges its streams
// in arrival order.

// Row-count thresholds for local Gathers. Ψ/Ω predicates pay k·l̄ character
// operations per tuple, so they parallelize at much smaller cardinalities
// than plain predicates.
const (
	// ParallelScanRows gates plain scans and filters, and joins with a cheap
	// condition by their outer input.
	ParallelScanRows = 1024
	// ParallelPsiRows gates scans filtered by a Ψ or Ω predicate.
	ParallelPsiRows = 128
	// ParallelJoinOuterRows gates Ψ/Ω joins by their outer input.
	ParallelJoinOuterRows = 64
	// parallelMinRowsPerWorker caps worker count so each worker has a
	// useful share of the input.
	parallelMinRowsPerWorker = 16
)

// Place is the exchange-placement pass over root. With two or more shards
// every table access is shipped; otherwise workers > 1 allows local Gathers,
// and rows sizes a driving scan's table as the engine running the plan holds
// it (HeapRows). With neither, root is returned unchanged: the GOMAXPROCS=1
// path.
func Place(root *Node, workers int, shards []string, rows func(table string) float64) *Node {
	if root == nil || (workers <= 1 && len(shards) < 2) {
		return root
	}
	pl := &placement{workers: workers, shards: shards, rows: rows}
	return pl.place(root)
}

// HeapRows sizes tables for Place as the engine holding them does: a table's
// ANALYZE row count when it has one, else its heap's page count (pages, which
// exec.Env's TablePages answers; nil assumes the default size) at the
// never-analyzed default's rows per page. Only the exchange gate reads it;
// access paths are costed from statsFor.
func HeapRows(cat *catalog.Catalog, pages func(table string) (int64, error)) func(table string) float64 {
	return func(table string) float64 {
		if st := cat.Stats(table); st != nil {
			return float64(st.Rows)
		}
		if pages == nil {
			return defaultRows
		}
		np, err := pages(table)
		if err != nil {
			return 0 // no such heap: the scan fails when it runs
		}
		return float64(np) * defaultRows / defaultPages
	}
}

type placement struct {
	workers int
	shards  []string
	rows    func(table string) float64
}

func (pl *placement) place(n *Node) *Node {
	if n.Op == OpGather || n.Op == OpRemote {
		return n
	}
	if x := pl.exchange(n); x != nil {
		return x
	}
	for i, c := range n.Children {
		n.Children[i] = pl.place(c)
	}
	return n
}

// exchange returns n placed under its exchange, or nil when n gets none.
func (pl *placement) exchange(n *Node) *Node {
	if len(pl.shards) < 2 {
		return pl.gatherLocal(n)
	}
	// COUNT/SUM/MIN/MAX over a pushable input become per-shard partials
	// plus a coordinator merge. AVG (and any other non-decomposable
	// aggregate) stays at the coordinator over its remoted input.
	if n.Op == OpAggregate && splittableAggs(n.Aggs) && pushable(n, true) {
		return pl.splitAggregate(n)
	}
	if pushable(n, false) {
		return pl.remote(n)
	}
	return nil
}

// pushable reports whether the subtree rooted at n runs on a shard as it is:
// a table scan (an index scan with its index parameters) under filters,
// projections, materializations, limits and distincts — and, at the root of a
// fragment (root), the partial half of a split aggregate. It is also the
// fragment codec's whitelist. Joins stay at the coordinator: the two sides
// hash-shard on their own first columns, so matching rows of different
// tables need not be co-located. Sort stays too — the Gather merge is
// arrival-order and would destroy a per-shard order anyway. Limit and
// Distinct push down but keep a coordinator copy (remote).
func pushable(n *Node, root bool) bool {
	switch n.Op {
	case OpSeqScan:
		return len(n.Children) == 0
	case OpBTreeScan, OpMTreeScan, OpMDIScan, OpQGramScan:
		return len(n.Children) == 0 && n.Index != nil
	case OpAggregate:
		if !root {
			return false
		}
	case OpFilter, OpProject, OpMaterialize, OpLimit, OpDistinct:
	default:
		return false
	}
	return len(n.Children) == 1 && pushable(n.Children[0], false)
}

func splittableAggs(aggs []AggSpec) bool {
	for _, a := range aggs {
		switch a.Kind {
		case sql.FuncCount, sql.FuncSum, sql.FuncMin, sql.FuncMax:
		default:
			return false
		}
	}
	return true
}

// gather is the exchange merging children's streams on workers goroutines.
func gather(children []*Node, workers int, rows, cost float64) *Node {
	c := children[0]
	return &Node{Op: OpGather, Children: children, Cols: c.Cols, ColNames: c.ColNames, Workers: workers, EstRows: rows, EstCost: cost}
}

// ship is the exchange that runs frag on every shard: one Remote child per
// shard, merged by a Gather whose worker i drives shard i's stream, so a slow
// shard never blocks the others.
func (pl *placement) ship(frag *Node) *Node {
	n := float64(len(pl.shards))
	children := make([]*Node, len(pl.shards))
	for i, addr := range pl.shards {
		children[i] = &Node{
			Op:        OpRemote,
			Children:  []*Node{frag},
			Cols:      frag.Cols,
			ColNames:  frag.ColNames,
			ShardID:   i,
			ShardAddr: addr,
			EstRows:   frag.EstRows / n,
			EstCost:   frag.EstCost/n + frag.EstRows/n*ExchangeRowCost,
		}
	}
	return gather(children, len(pl.shards), frag.EstRows, children[0].EstCost+frag.EstRows*ExchangeRowCost)
}

// remote ships the pushable subtree n. Limit and Distinct keep a coordinator
// copy above the Gather: per-shard limits bound shipping, but n shards each
// returning LIMIT k rows still need the final cut (and per-shard DISTINCT can
// leave cross-shard duplicates only for rows that hash-routed apart, which
// re-deduplicate here).
func (pl *placement) remote(n *Node) *Node {
	g := pl.ship(n)
	switch n.Op {
	case OpLimit:
		return &Node{Op: OpLimit, Children: []*Node{g}, Cols: n.Cols, ColNames: n.ColNames, LimitN: n.LimitN, EstRows: n.EstRows, EstCost: g.EstCost}
	case OpDistinct:
		return &Node{Op: OpDistinct, Children: []*Node{g}, Cols: n.Cols, ColNames: n.ColNames, EstRows: n.EstRows, EstCost: g.EstCost + n.EstRows*CPUTupleCost}
	default:
		return g
	}
}

// splitAggregate rewrites Aggregate(child) into
//
//	FinalAggregate(Gather(Remote(PartialAggregate(child)) x shards))
//
// The partial emits [group keys..., partial agg values...] per shard; the
// final re-groups on the shipped keys and merges the partials (COUNT sums
// the int64 partial counts — type-preserving, so a distributed COUNT is
// bit-identical to the single-node answer).
func (pl *placement) splitAggregate(n *Node) *Node {
	g := len(n.GroupBy)

	// Partial: same grouping and aggregates, output schema fixed to
	// [keys..., aggs...] so the final half addresses partials by position.
	partialProjs := make([]Expr, 0, g+len(n.Aggs))
	partialCols := make([]ColInfo, 0, g+len(n.Aggs))
	partialNames := make([]string, 0, g+len(n.Aggs))
	for i, ge := range n.GroupBy {
		partialProjs = append(partialProjs, &ColIdx{Idx: i, Kind: ExprKind(ge)})
		partialCols = append(partialCols, ColInfo{Name: "key", Kind: ExprKind(ge)})
		partialNames = append(partialNames, "key")
	}
	for _, a := range n.Aggs {
		partialProjs = append(partialProjs, nil)
		partialCols = append(partialCols, ColInfo{Name: "partial", Kind: aggOutKind(a)})
		partialNames = append(partialNames, "partial")
	}
	partial := &Node{
		Op:       OpAggregate,
		Children: n.Children,
		Cols:     partialCols,
		ColNames: partialNames,
		GroupBy:  n.GroupBy,
		Aggs:     n.Aggs,
		Projs:    partialProjs,
		EstRows:  n.EstRows,
		EstCost:  n.EstCost,
	}
	exchange := pl.ship(partial)

	// Final: re-group on the shipped keys, merge the shipped partials.
	finalGroup := make([]Expr, g)
	for i := range finalGroup {
		finalGroup[i] = &ColIdx{Idx: i, Kind: partialCols[i].Kind}
	}
	finalAggs := make([]AggSpec, len(n.Aggs))
	for i, a := range n.Aggs {
		finalAggs[i] = AggSpec{Kind: a.Kind, Arg: &ColIdx{Idx: g + i, Kind: partialCols[g+i].Kind}, Merge: true}
	}
	return &Node{
		Op:       OpAggregate,
		Children: []*Node{exchange},
		Cols:     n.Cols,
		ColNames: n.ColNames,
		GroupBy:  finalGroup,
		Aggs:     finalAggs,
		Projs:    n.Projs,
		EstRows:  n.EstRows,
		EstCost:  exchange.EstCost + n.EstRows*CPUTupleCost,
	}
}

// aggOutKind is the output type of one aggregate, matching the executor's
// aggVal: COUNT is INT, SUM/AVG are FLOAT, MIN/MAX carry the input type.
func aggOutKind(a AggSpec) types.Kind {
	switch a.Kind {
	case sql.FuncCount:
		return types.KindInt
	case sql.FuncSum, sql.FuncAvg:
		return types.KindFloat
	default:
		if a.Arg != nil {
			return ExprKind(a.Arg)
		}
		return types.KindInt
	}
}

// gatherLocal wraps n in a Gather when it is a scan, a filter chain over one,
// or a join whose outer input is one, and the driving scan's table is large
// enough: a scan or filter by the table's rows, a join by its outer input's
// rows (the plan's selectivity over the table's rows), each against the
// threshold its condition's cost sets. A Ψ/Ω join whose outer input falls
// short of its threshold is driven by its materialized inner input instead,
// gated as a Ψ/Ω filter over it. The worker count is clamped so every
// worker keeps a useful share of the table. It returns nil to leave n serial.
func (pl *placement) gatherLocal(n *Node) *Node {
	var scan *Node
	threshold, share := float64(ParallelScanRows), 1.0
	switch n.Op {
	case OpSeqScan, OpFilter:
		if scan = drivingScan(n); condExpensive(n.Cond) {
			threshold = ParallelPsiRows
		}
	case OpPsiJoin, OpPsiIndexJoin, OpOmegaJoin, OpNLJoin:
		// Partition the outer (left) input; each worker re-runs the inner
		// subtree (for NL-family joins, a Materialize it fills privately).
		scan, share = drivenBy(n.Children[0])
		if condExpensive(n.Cond) {
			threshold = ParallelJoinOuterRows
		}
		// Or partition the inner: every worker re-runs the small outer input
		// against its own share of the inner rows, so each pair is still
		// evaluated once, by the worker that owns its inner row.
		inner := n.Children[1]
		if (n.Op == OpPsiJoin || n.Op == OpOmegaJoin) && scan != nil && pl.rows(scan.Table)*share < threshold && inner.Op == OpMaterialize {
			if s, sh := drivenBy(inner.Children[0]); s != nil {
				scan, share, threshold = s, sh, ParallelPsiRows
			}
		}
	}
	if scan == nil {
		return nil
	}
	size := pl.rows(scan.Table)
	w := min(pl.workers, int(size/parallelMinRowsPerWorker))
	if size*share < threshold || w < 2 {
		return nil
	}
	// The exchange term prices batch transfer: workers hand the consumer
	// whole pooled vectors, so per-row exchange cost is amortized over
	// ~BatchRows rows (see exec.BatchRows) and rarely outweighs the CPU
	// split for any subtree worth gathering.
	rows := n.EstimatedRows()
	cost := n.EstCost/float64(w) + rows*ExchangeRowCost
	if cost >= n.EstCost {
		return nil
	}
	scan.Parallel = true
	return gather([]*Node{n}, w, rows, cost)
}

// drivingScan returns the sequential scan that would be morsel-partitioned
// when the subtree rooted at n runs under a Gather: n itself, or the scan
// under a chain of filters. Index scans return nil — their page accesses are
// probe-ordered, not range-partitionable.
func drivingScan(n *Node) *Node {
	for n != nil {
		switch n.Op {
		case OpSeqScan:
			return n
		case OpFilter:
			n = n.Children[0]
		default:
			return nil
		}
	}
	return nil
}

// drivenBy returns input's driving scan and the share of the scan's rows
// input passes on; nil when input has none.
func drivenBy(input *Node) (*Node, float64) {
	scan := drivingScan(input)
	if scan == nil {
		return nil, 1
	}
	return scan, input.EstimatedRows() / math.Max(scan.EstimatedRows(), 1)
}

// condExpensive reports whether the condition contains a Ψ or Ω operator,
// whose per-tuple cost (Table 3) justifies early parallelization.
func condExpensive(e Expr) bool {
	found := false
	Walk(e, func(x Expr) {
		switch x.(type) {
		case *Psi, *Omega:
			found = true
		}
	})
	return found
}
