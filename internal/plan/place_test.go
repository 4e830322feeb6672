package plan

import (
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/catalog"
	"github.com/mural-db/mural/internal/histogram"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

func pScan(table string, rows float64) *Node {
	return &Node{
		Op:      OpSeqScan,
		Table:   table,
		Cols:    []ColInfo{{Rel: table, Name: "n", Kind: types.KindUniText}},
		EstRows: rows,
		EstCost: rows * CPUTupleCost,
	}
}

func pPsiFilter(child *Node) *Node {
	return &Node{
		Op:       OpFilter,
		Children: []*Node{child},
		Cols:     child.Cols,
		Cond: &Psi{L: &ColIdx{Idx: 0}, R: &Const{Val: types.NewText("akash")},
			Threshold: 1},
		EstRows: child.EstRows / 3,
		EstCost: child.EstCost + child.EstRows*PsiCharCost*10,
	}
}

func pCheapFilter(child *Node) *Node {
	return &Node{
		Op:       OpFilter,
		Children: []*Node{child},
		Cols:     child.Cols,
		Cond: &Cmp{Op: sql.OpGt, L: &ColIdx{Idx: 0},
			R: &Const{Val: types.NewInt(0)}},
		EstRows: child.EstRows / 3,
		EstCost: child.EstCost + child.EstRows*CPUTupleCost,
	}
}

// placeLocal runs exchange placement, sizing every table as
// its scan in n estimates it.
func placeLocal(n *Node, workers int) *Node {
	est := map[string]float64{}
	var walk func(*Node)
	walk = func(n *Node) {
		if n.Op == OpSeqScan {
			est[n.Table] = n.EstRows
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(n)
	return Place(n, workers, func(table string) float64 { return est[table] })
}

func countGathers(n *Node) int {
	if n == nil {
		return 0
	}
	c := 0
	if n.Op == OpGather {
		c = 1
	}
	for _, ch := range n.Children {
		c += countGathers(ch)
	}
	return c
}

// A Ψ filter parallelizes at much smaller cardinalities than a plain one:
// the per-tuple edit-distance cost dominates.
func TestParallelizePsiFilterThreshold(t *testing.T) {
	// Above ParallelPsiRows: gathered.
	root := placeLocal(pPsiFilter(pScan("t", 200)), 4)
	if root.Op != OpGather {
		t.Fatalf("root op = %s, want Gather\n%s", root.Op, Format(root))
	}
	scan := root.Children[0].Children[0]
	if !scan.Parallel {
		t.Error("driving scan not marked [parallel]")
	}
	if root.Workers < 2 || root.Workers > 4 {
		t.Errorf("workers = %d, want 2..4", root.Workers)
	}

	// Below ParallelPsiRows: stays serial.
	small := placeLocal(pPsiFilter(pScan("t", 100)), 4)
	if countGathers(small) != 0 {
		t.Errorf("small Ψ filter was gathered:\n%s", Format(small))
	}
}

// A cheap filter only parallelizes above the plain-scan threshold.
func TestParallelizeCheapFilterThreshold(t *testing.T) {
	big := placeLocal(pCheapFilter(pScan("t", 4096)), 4)
	if big.Op != OpGather {
		t.Fatalf("large cheap filter not gathered:\n%s", Format(big))
	}
	// 200 rows clears the Ψ threshold but not the plain one.
	small := placeLocal(pCheapFilter(pScan("t", 200)), 4)
	if countGathers(small) != 0 {
		t.Errorf("small cheap filter was gathered:\n%s", Format(small))
	}
}

func TestParallelizePlainScan(t *testing.T) {
	big := placeLocal(pScan("t", 4096), 4)
	if big.Op != OpGather || !big.Children[0].Parallel {
		t.Fatalf("large scan not gathered:\n%s", Format(big))
	}
	small := placeLocal(pScan("t", 500), 4)
	if countGathers(small) != 0 {
		t.Errorf("sub-threshold scan was gathered:\n%s", Format(small))
	}
}

func TestParallelizePsiJoinByOuterSize(t *testing.T) {
	mkJoin := func(outerRows float64) *Node {
		outer, inner := pScan("a", outerRows), pScan("b", 50)
		return &Node{
			Op:       OpPsiJoin,
			Children: []*Node{outer, inner},
			Cols:     append(append([]ColInfo{}, outer.Cols...), inner.Cols...),
			Cond: &Psi{L: &ColIdx{Idx: 0}, R: &ColIdx{Idx: 1},
				Threshold: 1},
			EstRows: outerRows,
			EstCost: outer.EstCost + inner.EstCost + outerRows*50*PsiCharCost*10,
		}
	}
	big := placeLocal(mkJoin(100), 4)
	if big.Op != OpGather {
		t.Fatalf("Ψ join with 100-row outer not gathered:\n%s", Format(big))
	}
	if !big.Children[0].Children[0].Parallel {
		t.Error("outer scan of gathered Ψ join not marked [parallel]")
	}
	if big.Children[0].Children[1].Parallel {
		t.Error("inner scan must stay serial (each worker re-runs it)")
	}
	small := placeLocal(mkJoin(30), 4)
	if countGathers(small) != 0 {
		t.Errorf("Ψ join with 30-row outer was gathered:\n%s", Format(small))
	}

	// Over a materialized inner: an outer too small to split partitions the
	// inner instead, a tiny inner stays serial, and an outer large enough
	// still partitions the outer.
	mkMatJoin := func(outerRows, innerRows float64) *Node {
		outer, scan := pScan("a", outerRows), pScan("b", innerRows)
		inner := &Node{Op: OpMaterialize, Children: []*Node{scan}, Cols: scan.Cols, EstRows: innerRows, EstCost: scan.EstCost}
		return &Node{
			Op:       OpPsiJoin,
			Children: []*Node{outer, inner},
			Cols:     append(append([]ColInfo{}, outer.Cols...), inner.Cols...),
			Cond:     &Psi{L: &ColIdx{Idx: 0}, R: &ColIdx{Idx: 1}, Threshold: 2},
			EstRows:  outerRows,
			EstCost:  outer.EstCost + inner.EstCost + outerRows*innerRows*PsiCharCost*10,
		}
	}
	for _, tc := range []struct {
		outer, inner  float64
		parallelOuter bool
		parallelInner bool
	}{
		{outer: 2, inner: 25000, parallelInner: true},
		{outer: 2, inner: 50},
		{outer: 100, inner: 25000, parallelOuter: true},
	} {
		root := placeLocal(mkMatJoin(tc.outer, tc.inner), 2)
		gathered := tc.parallelOuter || tc.parallelInner
		if gathered != (root.Op == OpGather) || countGathers(root) != map[bool]int{true: 1}[gathered] {
			t.Errorf("outer %g × inner %g: want Gather above the join %v:\n%s", tc.outer, tc.inner, gathered, Format(root))
			continue
		}
		join := root
		if gathered {
			join = root.Children[0]
		}
		outer, inner := join.Children[0], join.Children[1].Children[0]
		if outer.Parallel != tc.parallelOuter || inner.Parallel != tc.parallelInner {
			t.Errorf("outer %g × inner %g: outer [parallel]=%v, inner [parallel]=%v, want %v and %v:\n%s",
				tc.outer, tc.inner, outer.Parallel, inner.Parallel, tc.parallelOuter, tc.parallelInner, Format(root))
		}
	}
}

// The worker count is clamped so each worker keeps a useful share of the
// driving scan.
func TestParallelizeClampsWorkers(t *testing.T) {
	root := placeLocal(pPsiFilter(pScan("t", 130)), 16)
	if root.Op != OpGather {
		t.Fatalf("not gathered:\n%s", Format(root))
	}
	if want := 130 / parallelMinRowsPerWorker; root.Workers != want {
		t.Errorf("workers = %d, want clamp to %d", root.Workers, want)
	}
}

// workers <= 1 (the GOMAXPROCS=1 degradation path) leaves the plan intact.
func TestParallelizeSingleWorkerIsIdentity(t *testing.T) {
	n := pPsiFilter(pScan("t", 100000))
	root := placeLocal(n, 1)
	if root != n || countGathers(root) != 0 || n.Children[0].Parallel {
		t.Errorf("workers=1 modified the plan:\n%s", Format(root))
	}
}

// The pass never stacks exchanges: once a subtree is gathered it is final.
func TestParallelizeNoNestedGathers(t *testing.T) {
	// A Ψ filter over a Ψ filter over a big scan: both levels are eligible
	// on their own, but only one Gather may appear.
	root := placeLocal(pPsiFilter(pPsiFilter(pScan("t", 100000))), 4)
	if got := countGathers(root); got != 1 {
		t.Errorf("gather count = %d, want 1\n%s", got, Format(root))
	}
}

// Index-driven filters have no morsel-partitionable scan and stay serial.
func TestParallelizeSkipsIndexScans(t *testing.T) {
	idx := &Node{
		Op:      OpMTreeScan,
		Table:   "t",
		Index:   &IndexCond{Index: "t_n_mtree"},
		Cols:    []ColInfo{{Rel: "t", Name: "n", Kind: types.KindUniText}},
		EstRows: 100000,
		EstCost: 5000,
	}
	root := placeLocal(pPsiFilter(idx), 4)
	if countGathers(root) != 0 {
		t.Errorf("index-driven filter was gathered:\n%s", Format(root))
	}
}

// A gathered plan renders with the worker count and the parallel scan marker.
func TestGatherExplainRendering(t *testing.T) {
	root := placeLocal(pPsiFilter(pScan("t", 200)), 4)
	out := Format(root)
	if !strings.Contains(out, "Gather workers=") {
		t.Errorf("EXPLAIN missing Gather workers annotation:\n%s", out)
	}
	if !strings.Contains(out, "[parallel]") {
		t.Errorf("EXPLAIN missing [parallel] scan marker:\n%s", out)
	}
}

// findOps collects nodes of one operator type in preorder.
func findOps(n *Node, op OpType) []*Node {
	var out []*Node
	if n.Op == op {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = append(out, findOps(c, op)...)
	}
	return out
}

// The exchange gate sizes a table that was never ANALYZEd by its heap's page
// count, not by the default estimate: a one-page table stays serial, a
// twenty-page one is gathered, and an ANALYZE row count wins over both.
func TestPlaceSizesUnanalyzedTableByHeap(t *testing.T) {
	cat := catalog.New()
	if err := cat.AddTable(&catalog.Table{Name: "t", File: 1, Columns: []catalog.Column{
		{Name: "id", Kind: types.KindInt}, {Name: "name", Kind: types.KindUniText},
	}}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT id FROM t WHERE name LEXEQUAL 'akash' THRESHOLD 1`
	p := mkPlanner(cat)
	p.Opts.Workers = 2
	for _, tc := range []struct {
		pages    int64
		analyzed int64 // ANALYZE row count; 0 leaves the table unanalyzed
		gather   bool
	}{{1, 0, false}, {20, 0, true}, {20, 6, false}} {
		if tc.analyzed > 0 {
			cat.SetStats("t", &catalog.TableStats{Rows: tc.analyzed, Pages: 1})
		}
		p.Pages = func(string) (int64, error) { return tc.pages, nil }
		node := planQuery(t, p, q)
		if got := countGathers(node) == 1; got != tc.gather {
			t.Errorf("pages=%d analyzed=%d: gathered=%v, want %v\n%s", tc.pages, tc.analyzed, got, tc.gather, Format(node))
		}
	}
}

// psi_join's statement shape: a two-row window of a 256-row probe table,
// Ψ-joined with 25,000 names. The window estimates a handful of rows from the
// id histogram, at either end of the ids and in the middle (its two bounds one
// range, not two independent conjuncts), so placement partitions the inner
// scan and every worker runs the small outer side whole — not the outer side
// split two ways with every worker reading all 25,000 names.
func TestPsiJoinWindowPartitionsInnerScan(t *testing.T) {
	cat := catalog.New()
	for i, name := range []string{"probe", "names"} {
		if err := cat.AddTable(&catalog.Table{Name: name, File: storage.FileID(i + 1), Columns: []catalog.Column{
			{Name: "id", Kind: types.KindInt}, {Name: "name", Kind: types.KindUniText},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	stats := func(rows int) *catalog.TableStats {
		ids, names := make([]string, rows), make([]string, rows)
		for i := range ids {
			ids[i] = hex.EncodeToString(types.KeyOf(types.NewInt(int64(i))))
			names[i] = fmt.Sprintf("n%d", i%1000)
		}
		return &catalog.TableStats{Rows: int64(rows), Pages: int64(rows / 100), Columns: map[string]*catalog.ColumnStats{
			"id":   {Hist: histogram.Build(ids, histogram.DefaultFrequentValues), AvgWidth: 4},
			"name": {Hist: histogram.Build(names, histogram.DefaultFrequentValues), AvgWidth: 8},
		}}
	}
	cat.SetStats("probe", stats(256))
	cat.SetStats("names", stats(25000))
	p := mkPlanner(cat)
	p.Opts.Workers = 2
	for _, lo := range []int{0, 120, 254} {
		node := planQuery(t, p, fmt.Sprintf(`SELECT p.id, n.id FROM probe p, names n WHERE p.id >= %d AND p.id < %d AND p.name LEXEQUAL n.name THRESHOLD 2`, lo, lo+2))
		joins := findOps(node, OpPsiJoin)
		if len(joins) != 1 || node.Op != OpGather && (len(node.Children) == 0 || node.Children[0].Op != OpGather) {
			t.Fatalf("want one Ψ join under a Gather:\n%s", Format(node))
		}
		join := joins[0]
		if est := join.Children[0].EstimatedRows(); est > 8 {
			t.Errorf("the two-row window [%d, %d) estimates %g rows, want at most 8:\n%s", lo, lo+2, est, Format(node))
		}
		scans := findOps(join, OpSeqScan)
		for _, s := range scans {
			if s.Parallel != (s.Table == "names") {
				t.Errorf("window [%d, %d): scan of %s [parallel]=%v, want only the inner names scan partitioned:\n%s", lo, lo+2, s.Table, s.Parallel, Format(node))
			}
		}
	}
}

// Every consumer that drains its input stays above the Gather, and stays
// whole: a sort, an aggregate, a limit or a distinct over a gathered scan or
// join runs once, over the merged streams, and nothing under the Gather is
// one of them.
func TestPlaceKeepsDrainingOpsAboveGather(t *testing.T) {
	cat := catalog.New()
	for i, name := range []string{"names", "probe"} {
		if err := cat.AddTable(&catalog.Table{Name: name, File: storage.FileID(i + 1), Columns: []catalog.Column{
			{Name: "id", Kind: types.KindInt}, {Name: "name", Kind: types.KindUniText},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	cat.SetStats("names", &catalog.TableStats{Rows: 5000, Pages: 50})
	cat.SetStats("probe", &catalog.TableStats{Rows: 500, Pages: 5})
	p := mkPlanner(cat)
	p.Opts.Workers = 4
	const psi = `name LEXEQUAL 'nehru' THRESHOLD 2`
	for _, tc := range []struct {
		name, q string
		op      OpType
	}{
		{"sort", `SELECT id FROM names WHERE ` + psi + ` ORDER BY id`, OpSort},
		{"aggregate", `SELECT count(*), sum(id) FROM names WHERE ` + psi, OpAggregate},
		{"group", `SELECT lang(name), count(*) FROM names WHERE ` + psi + ` GROUP BY lang(name)`, OpAggregate},
		{"limit", `SELECT id FROM names WHERE ` + psi + ` LIMIT 10`, OpLimit},
		{"distinct", `SELECT DISTINCT id FROM names WHERE ` + psi, OpDistinct},
		{"join", `SELECT count(*) FROM probe p, names n WHERE p.name LEXEQUAL n.name THRESHOLD 2`, OpAggregate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := planQuery(t, p, tc.q)
			gathers := findOps(node, OpGather)
			if len(gathers) != 1 {
				t.Fatalf("want one Gather, got %d:\n%s", len(gathers), Format(node))
			}
			if ops := findOps(node, tc.op); len(ops) != 1 || len(findOps(ops[0], OpGather)) != 1 {
				t.Errorf("want one %s, above the Gather:\n%s", tc.op, Format(node))
			}
			for _, op := range []OpType{OpSort, OpAggregate, OpLimit, OpDistinct} {
				if len(findOps(gathers[0], op)) != 0 {
					t.Errorf("%s under the Gather:\n%s", op, Format(node))
				}
			}
		})
	}
}

// fuzzPlan builds one of a fixed set of serial plan shapes over a scan of
// table a (outer rows) and one of table b (inner rows): scans, filter chains,
// draining consumers, index-driven filters, and Ψ, Ω and cheap joins over
// plain and materialized inner inputs.
func fuzzPlan(shape uint8, outer, inner float64) *Node {
	over := func(op OpType, child *Node) *Node {
		return &Node{Op: op, Children: []*Node{child}, Cols: child.Cols, EstRows: child.EstRows, EstCost: child.EstCost + child.EstRows*CPUTupleCost}
	}
	join := func(op OpType, cond Expr, perPair float64, l, r *Node) *Node {
		return &Node{
			Op:       op,
			Children: []*Node{l, r},
			Cols:     append(append([]ColInfo{}, l.Cols...), r.Cols...),
			Cond:     cond,
			EstRows:  l.EstRows,
			EstCost:  l.EstCost + r.EstCost + l.EstRows*r.EstRows*perPair,
		}
	}
	psi := &Psi{L: &ColIdx{Idx: 0}, R: &ColIdx{Idx: 1}, Threshold: 2}
	omega := &Omega{L: &ColIdx{Idx: 0}, R: &ColIdx{Idx: 1}, Langs: []types.LangID{types.LangEnglish}}
	cheap := &Cmp{Op: sql.OpEq, L: &ColIdx{Idx: 0}, R: &ColIdx{Idx: 1}}
	a, b := pScan("a", outer), pScan("b", inner)
	switch shape % 12 {
	case 0:
		return a
	case 1:
		return pCheapFilter(a)
	case 2:
		return pPsiFilter(a)
	case 3:
		return pPsiFilter(pCheapFilter(a))
	case 4:
		return over(OpAggregate, pPsiFilter(a))
	case 5:
		return over(OpLimit, over(OpSort, pCheapFilter(a)))
	case 6:
		idx := &Node{Op: OpMTreeScan, Table: "a", Index: &IndexCond{Index: "a_n_mtree"}, Cols: a.Cols, EstRows: outer, EstCost: outer * CPUTupleCost}
		return pPsiFilter(idx)
	case 7:
		return join(OpPsiJoin, psi, PsiCharCost*10, a, b)
	case 8:
		return join(OpPsiJoin, psi, PsiCharCost*10, pCheapFilter(a), over(OpMaterialize, b))
	case 9:
		return join(OpOmegaJoin, omega, PsiCharCost*10, a, over(OpMaterialize, pCheapFilter(b)))
	case 10:
		return over(OpAggregate, join(OpNLJoin, cheap, CPUTupleCost, a, over(OpMaterialize, b)))
	default:
		return over(OpDistinct, join(OpPsiJoin, psi, PsiCharCost*10, pPsiFilter(a), over(OpMaterialize, pPsiFilter(b))))
	}
}

// opsOf lists the operators of n in preorder, skipping Gathers.
func opsOf(n *Node) []OpType {
	var out []OpType
	if n.Op != OpGather {
		out = append(out, n.Op)
	}
	for _, c := range n.Children {
		out = append(out, opsOf(c)...)
	}
	return out
}

// FuzzPlace checks exchange placement over random plan shapes, table sizes
// and worker counts. Placement only inserts Gathers: the plan without them is
// the serial plan. One worker or fewer leaves the plan as it was. A Gather
// has one child, is never nested under another, runs 2 to workers goroutines
// with a useful share of its driving table each, prices itself below its
// serial child, and has exactly one partitioned scan under it, and no scan
// outside a Gather is partitioned.
func FuzzPlace(f *testing.F) {
	for _, seed := range []struct {
		shape        uint8
		outer, inner uint32
		workers      uint8
	}{
		{0, 4096, 0, 4}, {0, 500, 0, 4}, {1, 4096, 0, 2}, {2, 200, 0, 4},
		{2, 100, 0, 4}, {2, 130, 0, 16}, {2, 100000, 0, 1}, {3, 100000, 0, 4},
		{4, 5000, 0, 8}, {5, 50000, 0, 2}, {6, 100000, 0, 4}, {7, 100, 50, 4},
		{7, 30, 50, 4}, {8, 2, 25000, 2}, {8, 2, 50, 2}, {8, 100, 25000, 2},
		{9, 300, 3000, 4}, {10, 5000, 200, 4}, {11, 50, 25000, 3}, {11, 0, 0, 0},
	} {
		f.Add(seed.shape, seed.outer, seed.inner, seed.workers)
	}
	f.Fuzz(func(t *testing.T, shape uint8, outer, inner uint32, workers uint8) {
		rows := map[string]float64{"a": float64(outer), "b": float64(inner)}
		root := fuzzPlan(shape, rows["a"], rows["b"])
		serial, want := Format(root), opsOf(root)
		placed := Place(root, int(workers), func(table string) float64 { return rows[table] })
		if got := opsOf(placed); !slices.Equal(got, want) {
			t.Fatalf("placement changed the plan beyond its Gathers: %v, want %v\n%s", got, want, Format(placed))
		}
		if workers <= 1 && (placed != root || Format(placed) != serial) {
			t.Fatalf("workers=%d changed the plan:\n%s\nwas:\n%s", workers, Format(placed), serial)
		}
		var walk func(n *Node, gathered bool)
		walk = func(n *Node, gathered bool) {
			if n.Parallel && !gathered {
				t.Errorf("%s on %s is partitioned outside a Gather:\n%s", n.Op, n.Table, Format(placed))
			}
			if n.Op == OpGather {
				if gathered {
					t.Errorf("nested Gather:\n%s", Format(placed))
				}
				if len(n.Children) != 1 {
					t.Fatalf("Gather with %d children:\n%s", len(n.Children), Format(placed))
				}
				var parts []*Node
				var scans func(*Node)
				scans = func(m *Node) {
					if m.Parallel {
						parts = append(parts, m)
					}
					for _, c := range m.Children {
						scans(c)
					}
				}
				scans(n.Children[0])
				if len(parts) != 1 || parts[0].Op != OpSeqScan {
					t.Fatalf("Gather partitions %d scans, want one sequential scan:\n%s", len(parts), Format(placed))
				}
				if share := int(rows[parts[0].Table] / parallelMinRowsPerWorker); n.Workers < 2 || n.Workers > int(workers) || n.Workers > share {
					t.Errorf("Gather workers=%d, want 2..min(%d, %d):\n%s", n.Workers, workers, share, Format(placed))
				}
				if n.EstCost >= n.Children[0].EstCost {
					t.Errorf("Gather costs %g, not below its serial child's %g:\n%s", n.EstCost, n.Children[0].EstCost, Format(placed))
				}
				gathered = true
			}
			for _, c := range n.Children {
				walk(c, gathered)
			}
		}
		walk(placed, false)
	})
}
