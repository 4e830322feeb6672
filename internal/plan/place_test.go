package plan

import (
	"encoding/hex"
	"fmt"
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

// placeLocal runs exchange placement without shards, sizing every table as
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
	return Place(n, workers, nil, func(table string) float64 { return est[table] })
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

var testShards = []string{"h1:1", "h2:2", "h3:3"}

func planSharded(t *testing.T, q string) *Node {
	t.Helper()
	p := mkPlanner(testCatalog())
	p.Opts.Shards = testShards
	return planQuery(t, p, q)
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

func TestShardNoopBelowTwoShards(t *testing.T) {
	p := mkPlanner(testCatalog())
	for _, shards := range [][]string{nil, {"h1:1"}} {
		p.Opts.Shards = shards
		node := planQuery(t, p, `SELECT * FROM names`)
		if len(findOps(node, OpRemote)) != 0 {
			t.Errorf("shards=%v: plan grew Remote nodes:\n%s", shards, Format(node))
		}
	}
}

func TestShardRewritesScanIntoGatherOverRemotes(t *testing.T) {
	node := planSharded(t, `SELECT * FROM names WHERE name LEXEQUAL unitext('nehru', english) THRESHOLD 2`)
	gathers := findOps(node, OpGather)
	if len(gathers) != 1 {
		t.Fatalf("want one Gather, got %d:\n%s", len(gathers), Format(node))
	}
	g := gathers[0]
	if g.Workers != len(testShards) {
		t.Errorf("Gather workers = %d, want %d", g.Workers, len(testShards))
	}
	remotes := findOps(node, OpRemote)
	if len(remotes) != len(testShards) {
		t.Fatalf("want %d Remote children, got %d:\n%s", len(testShards), len(remotes), Format(node))
	}
	for i, r := range remotes {
		if r.ShardID != i || r.ShardAddr != testShards[i] {
			t.Errorf("remote %d routed to shard=%d addr=%s", i, r.ShardID, r.ShardAddr)
		}
		if len(r.Children) != 1 {
			t.Fatalf("remote %d has %d children", i, len(r.Children))
		}
		if _, err := EncodeFragment(r.Children[0]); err != nil {
			t.Errorf("remote %d fragment does not encode: %v", i, err)
		}
	}
}

func TestShardSplitsAggregate(t *testing.T) {
	node := planSharded(t, `SELECT lang(name), count(*) FROM names GROUP BY lang(name)`)
	aggs := findOps(node, OpAggregate)
	if len(aggs) != 1+len(testShards) {
		t.Fatalf("want coordinator agg + one partial per shard, got %d aggregates:\n%s", len(aggs), Format(node))
	}
	final := aggs[0]
	if len(final.Aggs) != 1 || !final.Aggs[0].Merge {
		t.Errorf("final aggregate not in merge mode: %+v", final.Aggs)
	}
	for _, partial := range aggs[1:] {
		if partial.Aggs[0].Merge {
			t.Error("shard-side partial aggregate marked Merge")
		}
	}
}

func TestShardKeepsSortAndJoinOnCoordinator(t *testing.T) {
	node := planSharded(t, `SELECT id FROM names WHERE pdist < 3 ORDER BY id`)
	for _, r := range findOps(node, OpRemote) {
		if len(findOps(r.Children[0], OpSort)) != 0 {
			t.Errorf("Sort pushed into a fragment:\n%s", Format(node))
		}
	}

	join := planSharded(t, `SELECT count(*) FROM probe p, names n WHERE p.pname LEXEQUAL n.name THRESHOLD 2`)
	remotes := findOps(join, OpRemote)
	if len(remotes) == 0 {
		t.Fatalf("join inputs not sharded:\n%s", Format(join))
	}
	for _, r := range remotes {
		frag := Format(r.Children[0])
		if strings.Contains(frag, "Join") {
			t.Errorf("join pushed into a fragment:\n%s", frag)
		}
	}
}

func TestShardPushesLimitWithCoordinatorCopy(t *testing.T) {
	node := planSharded(t, `SELECT id FROM names LIMIT 10`)
	limits := findOps(node, OpLimit)
	// One coordinator copy plus the pushed copy inside each fragment (the
	// fragment is shared across Remote nodes, so preorder sees it N times).
	if len(limits) < 2 {
		t.Fatalf("limit not both pushed and kept: %d Limit nodes\n%s", len(limits), Format(node))
	}
	var aboveGather bool
	for _, l := range limits {
		if len(findOps(l, OpGather)) > 0 {
			aboveGather = true
		}
	}
	if !aboveGather {
		t.Errorf("no coordinator-side Limit above the Gather:\n%s", Format(node))
	}
}

// Placement never gathers below a Remote, so a fragment shipped to a shard
// carries no Parallel flag — the shard places what it decodes — even when
// the planner runs with workers to spare.
func TestShardedFragmentsAreSerial(t *testing.T) {
	p := mkPlanner(testCatalog())
	p.Opts.Shards, p.Opts.Workers = testShards, 4
	for _, q := range []string{
		`SELECT * FROM names WHERE name LEXEQUAL unitext('nehru', english) THRESHOLD 2`,
		`SELECT count(*) FROM names WHERE name LEXEQUAL unitext('nehru', english) THRESHOLD 2`,
		`SELECT count(*) FROM probe p, names n WHERE p.pname LEXEQUAL n.name THRESHOLD 2`,
	} {
		node := planQuery(t, p, q)
		remotes := findOps(node, OpRemote)
		if len(remotes) == 0 {
			t.Fatalf("%s: no Remote:\n%s", q, Format(node))
		}
		for _, r := range remotes {
			var walk func(n *Node)
			walk = func(n *Node) {
				if n.Parallel {
					t.Errorf("%s: %s under a Remote is marked parallel:\n%s", q, n.Op, Format(node))
				}
				for _, c := range n.Children {
					walk(c)
				}
			}
			walk(r)
		}
	}
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

// A coordinator's own heaps are empty routers, so its ANALYZE says rows=0 and
// the fragments it plans carry that estimate. The shard places a decoded
// fragment sized by its own catalog, so a large shard table is gathered.
func TestShardPlacesFragmentByItsOwnRows(t *testing.T) {
	coordinator := testCatalog()
	coordinator.SetStats("names", &catalog.TableStats{})
	p := mkPlanner(coordinator)
	p.Opts.Shards, p.Opts.Workers = testShards, 2
	node := planQuery(t, p, `SELECT * FROM names WHERE name LEXEQUAL unitext('nehru', english) THRESHOLD 2`)
	remotes := findOps(node, OpRemote)
	if len(remotes) == 0 {
		t.Fatalf("no Remote:\n%s", Format(node))
	}
	data, err := EncodeFragment(remotes[0].Children[0])
	if err != nil {
		t.Fatal(err)
	}
	frag, err := DecodeFragment(data)
	if err != nil {
		t.Fatal(err)
	}
	shard := testCatalog()
	shard.SetStats("names", &catalog.TableStats{Rows: 2000, Pages: 40})
	placed := Place(frag, 2, nil, HeapRows(shard, nil))
	if countGathers(placed) != 1 || len(findOps(placed, OpSeqScan)) != 1 || !findOps(placed, OpSeqScan)[0].Parallel {
		t.Errorf("fragment over 2,000 shard rows not gathered:\n%s", Format(placed))
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
