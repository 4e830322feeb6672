// Shard post-pass: rewrite plans over hash-sharded tables into
// Gather-over-Remote trees, modeled on promql-engine's RemoteExecution /
// shard-expressions split. Every scan of a sharded table must execute on
// the shards (the coordinator's local heaps are empty routers), so unlike
// the Parallelize pass this rewrite is not cost-gated: it walks the plan
// top-down, replaces the largest pushable subtree it finds with one Remote
// fragment per shard merged by a Gather, and splits eligible aggregates
// into per-shard partials plus a coordinator-side merge.
package plan

import (
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/types"
)

// Shard rewrites every access to a sharded table in the tree rooted at n.
// With no shards configured it returns n unchanged. It runs before
// Parallelize, so no fragment it ships carries a Parallel flag: the
// coordinator-side remainder may still grow local Gather exchanges (which
// stop at a Remote), and each shard re-runs Parallelize over its decoded
// fragment.
func Shard(n *Node, shards []string) *Node {
	if len(shards) < 2 || n == nil {
		return n
	}
	return shardRewrite(n, shards)
}

func shardRewrite(n *Node, shards []string) *Node {
	if n == nil || n.Op == OpRemote || n.Op == OpGather {
		return n
	}
	// Aggregate split: COUNT/SUM/MIN/MAX over a pushable input become a
	// per-shard partial aggregate plus a coordinator merge. AVG (and any
	// future non-decomposable aggregate) keeps the aggregation at the
	// coordinator and only remotes the input below it.
	if n.Op == OpAggregate && touchesTable(n.Children[0]) && pushable(n.Children[0]) && splittableAggs(n.Aggs) {
		return splitAggregate(n, shards)
	}
	if touchesTable(n) && pushable(n) {
		return remoteOver(n, shards)
	}
	for i, c := range n.Children {
		n.Children[i] = shardRewrite(c, shards)
	}
	return n
}

// pushable reports whether the whole subtree can run on a shard verbatim.
// Joins stay at the coordinator: the two sides hash-shard on their own
// first columns, so matching rows of different tables need not be
// co-located. Sort stays too — the Gather merge is arrival-order and would
// destroy a per-shard order anyway. Limit and Distinct push down but keep
// their coordinator copy (see remoteOver).
func pushable(n *Node) bool {
	switch n.Op {
	case OpSeqScan, OpBTreeScan, OpMTreeScan, OpMDIScan, OpQGramScan:
		return true
	case OpFilter, OpProject, OpMaterialize, OpLimit, OpDistinct:
		return pushable(n.Children[0])
	default:
		return false
	}
}

// touchesTable reports whether the subtree reads any base table (when a
// shard map is set, every user table is sharded).
func touchesTable(n *Node) bool {
	if n.Table != "" {
		return true
	}
	for _, c := range n.Children {
		if touchesTable(c) {
			return true
		}
	}
	return false
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

// remoteOver replaces a pushable subtree with Gather(Remote_0 .. Remote_n-1),
// each Remote shipping a copy of the subtree to one shard. Limit and
// Distinct keep a coordinator copy above the Gather: per-shard limits bound
// shipping, but n shards each returning LIMIT k rows still need the final
// cut (and per-shard DISTINCT can leave cross-shard duplicates only for
// rows that hash-routed apart, which re-deduplicate here).
func remoteOver(n *Node, shards []string) *Node {
	g := gatherShards(n, shards)
	switch n.Op {
	case OpLimit:
		return &Node{Op: OpLimit, Children: []*Node{g}, Cols: n.Cols, ColNames: n.ColNames, LimitN: n.LimitN, EstRows: n.EstRows, EstCost: g.EstCost}
	case OpDistinct:
		return &Node{Op: OpDistinct, Children: []*Node{g}, Cols: n.Cols, ColNames: n.ColNames, EstRows: n.EstRows, EstCost: g.EstCost + n.EstRows*CPUTupleCost}
	default:
		return g
	}
}

// gatherShards builds the exchange: one Remote child per shard, merged by a
// Gather whose worker count equals the shard count (worker i drives shard
// i's stream, so a slow shard never blocks the others).
func gatherShards(frag *Node, shards []string) *Node {
	children := make([]*Node, len(shards))
	perShard := frag.EstCost / float64(len(shards))
	for i, addr := range shards {
		children[i] = &Node{
			Op:        OpRemote,
			Children:  []*Node{frag},
			Cols:      frag.Cols,
			ColNames:  frag.ColNames,
			ShardID:   i,
			ShardAddr: addr,
			EstRows:   frag.EstRows / float64(len(shards)),
			EstCost:   perShard + frag.EstRows/float64(len(shards))*ExchangeRowCost,
		}
	}
	return &Node{
		Op:       OpGather,
		Children: children,
		Cols:     frag.Cols,
		ColNames: frag.ColNames,
		Workers:  len(shards),
		EstRows:  frag.EstRows,
		EstCost:  children[0].EstCost + frag.EstRows*ExchangeRowCost,
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
func splitAggregate(n *Node, shards []string) *Node {
	child := n.Children[0]
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
		k := aggOutKind(a)
		partialCols = append(partialCols, ColInfo{Name: "partial", Kind: k})
		partialNames = append(partialNames, "partial")
	}
	partial := &Node{
		Op:       OpAggregate,
		Children: []*Node{child},
		Cols:     partialCols,
		ColNames: partialNames,
		GroupBy:  n.GroupBy,
		Aggs:     n.Aggs,
		Projs:    partialProjs,
		EstRows:  n.EstRows,
		EstCost:  n.EstCost,
	}

	gather := gatherShards(partial, shards)

	// Final: re-group on the shipped keys, merge the shipped partials.
	finalGroup := make([]Expr, g)
	for i := 0; i < g; i++ {
		finalGroup[i] = &ColIdx{Idx: i, Kind: partialCols[i].Kind}
	}
	finalAggs := make([]AggSpec, len(n.Aggs))
	for i, a := range n.Aggs {
		finalAggs[i] = AggSpec{Kind: a.Kind, Arg: &ColIdx{Idx: g + i, Kind: partialCols[g+i].Kind}, Merge: true}
	}
	return &Node{
		Op:       OpAggregate,
		Children: []*Node{gather},
		Cols:     n.Cols,
		ColNames: n.ColNames,
		GroupBy:  finalGroup,
		Aggs:     finalAggs,
		Projs:    n.Projs,
		EstRows:  n.EstRows,
		EstCost:  gather.EstCost + n.EstRows*CPUTupleCost,
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
