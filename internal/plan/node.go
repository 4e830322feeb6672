package plan

import (
	"fmt"
	"strings"
	"time"

	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/types"
)

// OpType identifies a physical operator.
type OpType int

// Physical operators.
const (
	OpSeqScan OpType = iota
	OpBTreeScan
	OpMTreeScan
	OpMDIScan
	OpQGramScan
	OpFilter
	OpProject
	OpNLJoin
	OpHashJoin
	OpPsiJoin      // nested-loops Ψ join over a materialized inner side
	OpPsiIndexJoin // probe an M-Tree per outer row
	OpOmegaJoin    // nested-loops Ω join over a materialized inner side (§4.3)
	OpAggregate
	OpSort
	OpLimit
	OpDistinct
	OpMaterialize
	OpGather // exchange: merge N workers running the child subtree in parallel
)

// String names the operator as EXPLAIN prints it.
func (o OpType) String() string {
	switch o {
	case OpSeqScan:
		return "SeqScan"
	case OpBTreeScan:
		return "IndexScan(BTree)"
	case OpMTreeScan:
		return "IndexScan(MTree)"
	case OpMDIScan:
		return "IndexScan(MDI)"
	case OpQGramScan:
		return "IndexScan(QGram)"
	case OpFilter:
		return "Filter"
	case OpProject:
		return "Project"
	case OpNLJoin:
		return "NestLoopJoin"
	case OpHashJoin:
		return "HashJoin"
	case OpPsiJoin:
		return "PsiJoin(NL)"
	case OpPsiIndexJoin:
		return "PsiJoin(MTree)"
	case OpOmegaJoin:
		return "OmegaJoin(NL)"
	case OpAggregate:
		return "Aggregate"
	case OpSort:
		return "Sort"
	case OpLimit:
		return "Limit"
	case OpDistinct:
		return "Distinct"
	case OpMaterialize:
		return "Materialize"
	case OpGather:
		return "Gather"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// AggSpec is one aggregate computed by an Aggregate node.
type AggSpec struct {
	Kind sql.FuncKind
	Arg  Expr // nil for COUNT(*)
}

// IndexCond carries the index probe parameters of an index scan.
type IndexCond struct {
	// Index is the catalog index name.
	Index string
	// EqKey probes equality (BTree); Lo/Hi probe a range; for metric scans
	// Probe and Threshold drive the search.
	EqKey     Expr
	Lo, Hi    Expr
	Probe     Expr // Ψ query operand (constant side)
	Threshold int
	Langs     []types.LangID
	// Col is the indexed column's position in the base-table schema.
	Col int
}

// Node is one physical plan operator. EstRows and EstCost are the
// optimizer's predictions; the executor fills ActualRows/ActualNs when
// EXPLAIN ANALYZE runs.
type Node struct {
	Op       OpType
	Children []*Node
	Cols     []ColInfo

	EstRows float64
	EstCost float64

	// Scan fields.
	Table string // catalog table name
	Alias string
	Index *IndexCond

	// Filter / join condition (positional, over the node's input schema;
	// for joins the schema is left ++ right). A Ψ, Ψ-index or Ω join's
	// condition is its Ψ or Ω over one column of each side.
	Cond Expr

	// Hash join equi-columns (positions in the joint schema).
	HashLeft, HashRight int

	// Projection.
	Projs    []Expr
	ColNames []string

	// Aggregation.
	GroupBy []Expr
	Aggs    []AggSpec

	// Sort keys (positions are relative to the child's schema).
	SortKeys []Expr
	SortDesc []bool

	// Limit.
	LimitN int64

	// Gather: number of worker goroutines running the child subtree.
	Workers int
	// Parallel marks a scan that each Gather worker runs over a disjoint
	// morsel (page range) of the table instead of the whole heap.
	Parallel bool

	// Selectivity-feedback annotation: when FbKind is non-empty the node's
	// measured output cardinality is an observation for the (FbKind,
	// FbTable, FbBand) cell of the engine's feedback sketch. FbInput is the
	// per-loop input cardinality for nodes whose input is implicit (index
	// scans probe the whole table); 0 means "divide by the child operator's
	// measured rows".
	FbKind  string
	FbTable string
	FbBand  int
	FbInput float64
}

// Schema returns the output columns.
func (n *Node) Schema() []ColInfo { return n.Cols }

// EstimatedRows is the uniform cardinality accessor: the optimizer's own
// estimate when the node carries one, else the largest child estimate (pure
// pass-through operators like Materialize or Project never shrink their
// input, so inheriting the child's cardinality beats printing a zero).
func (n *Node) EstimatedRows() float64 {
	if n.EstRows > 0 {
		return n.EstRows
	}
	max := 0.0
	for _, c := range n.Children {
		if r := c.EstimatedRows(); r > max {
			max = r
		}
	}
	return max
}

// Actual holds executor-measured figures for one plan node; the exec package
// fills it during EXPLAIN ANALYZE. Counters are totals across all loops.
type Actual struct {
	Rows    int64
	Loops   int64
	Elapsed time.Duration
}

// Format renders the plan tree in EXPLAIN style.
func Format(n *Node) string {
	var b strings.Builder
	format(&b, n, 0, nil)
	return b.String()
}

// FormatAnalyze renders the plan tree in EXPLAIN ANALYZE style: each node
// line carries estimated rows/cost plus the measured rows, loops and wall
// time looked up through actuals (which may report a miss for operators that
// never ran, printed as "never executed").
func FormatAnalyze(n *Node, actuals func(*Node) (Actual, bool)) string {
	var b strings.Builder
	format(&b, n, 0, actuals)
	return b.String()
}

func format(b *strings.Builder, n *Node, depth int, actuals func(*Node) (Actual, bool)) {
	indent := strings.Repeat("  ", depth)
	b.WriteString(indent)
	b.WriteString(n.Op.String())
	switch n.Op {
	case OpSeqScan:
		fmt.Fprintf(b, " %s", n.Table)
		if n.Alias != "" && n.Alias != n.Table {
			fmt.Fprintf(b, " AS %s", n.Alias)
		}
		if n.Parallel {
			b.WriteString(" [parallel]")
		}
	case OpGather:
		fmt.Fprintf(b, " workers=%d", n.Workers)
	case OpBTreeScan, OpMTreeScan, OpMDIScan, OpQGramScan:
		fmt.Fprintf(b, " %s using %s", n.Table, n.Index.Index)
		if n.Index.Probe != nil {
			fmt.Fprintf(b, " probe=%s k=%d", ExprString(n.Index.Probe), n.Index.Threshold)
		}
		if n.Index.EqKey != nil {
			fmt.Fprintf(b, " key=%s", ExprString(n.Index.EqKey))
		}
		if n.Index.Lo != nil || n.Index.Hi != nil {
			b.WriteString(" range")
		}
	case OpHashJoin:
		fmt.Fprintf(b, " on $%d = $%d", n.HashLeft, n.HashRight)
	case OpLimit:
		fmt.Fprintf(b, " %d", n.LimitN)
	}
	if n.Cond != nil {
		fmt.Fprintf(b, " cond=[%s]", ExprString(n.Cond))
	}
	fmt.Fprintf(b, "  (rows=%.0f cost=%.1f)", n.EstimatedRows(), n.EstCost)
	if actuals != nil {
		if a, ok := actuals(n); ok {
			fmt.Fprintf(b, " (actual rows=%d loops=%d time=%s)", a.Rows, a.Loops, a.Elapsed.Round(time.Microsecond))
		} else {
			b.WriteString(" (never executed)")
		}
	}
	b.WriteString("\n")
	for _, c := range n.Children {
		format(b, c, depth+1, actuals)
	}
}
