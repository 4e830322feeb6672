package plan

import (
	"math"

	"github.com/mural-db/mural/internal/catalog"
)

// Exchange placement: the one pass that decides where a chosen serial plan's
// work runs. It walks the plan top-down once and at each node either
//
//   - gathers it: a scan, a filter chain over one, or a join whose outer
//     input is one runs on up to Workers goroutines, each over disjoint
//     morsels of the driving scan's table, when that table is large enough
//     for the per-row work (Table 3: Ψ/Ω cost k·l̄ character operations a
//     tuple) to pay for the exchange. A Ψ/Ω join whose outer input is too
//     small to split is driven by the scan under its materialized inner
//     input instead: every worker re-runs the outer input; or
//   - recurses into its children.
//
// A Gather is final: the pass never recurses below one, so a pipeline holds
// at most one. Every consumer above a Gather is order-insensitive
// (Aggregate, Sort and Distinct drain their input; a LIMIT without ORDER BY
// returns arbitrary rows), so a Gather merges its streams in arrival order.

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

// Place is the exchange-placement pass over root: workers > 1 allows
// Gathers, and rows sizes a driving scan's table as the engine running the
// plan holds it (HeapRows). With one worker, root is returned unchanged: the
// GOMAXPROCS=1 path.
func Place(root *Node, workers int, rows func(table string) float64) *Node {
	if root == nil || workers <= 1 {
		return root
	}
	pl := &placement{workers: workers, rows: rows}
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
	rows    func(table string) float64
}

func (pl *placement) place(n *Node) *Node {
	if n.Op == OpGather {
		return n
	}
	if g := pl.gatherLocal(n); g != nil {
		return g
	}
	for i, c := range n.Children {
		n.Children[i] = pl.place(c)
	}
	return n
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
	return &Node{Op: OpGather, Children: []*Node{n}, Cols: n.Cols, ColNames: n.ColNames, Workers: w, EstRows: rows, EstCost: cost}
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
