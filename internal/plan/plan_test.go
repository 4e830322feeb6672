package plan

import (
	"encoding/hex"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/catalog"
	"github.com/mural-db/mural/internal/histogram"
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/types"
)

// testCatalog builds a catalog with names/probe/tax tables and canned
// statistics so planner decisions are deterministic.
func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(cat.AddTable(&catalog.Table{Name: "names", File: 1, Columns: []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "name", Kind: types.KindUniText},
		{Name: "pdist", Kind: types.KindInt},
	}}))
	must(cat.AddTable(&catalog.Table{Name: "probe", File: 2, Columns: []catalog.Column{
		{Name: "pid", Kind: types.KindInt},
		{Name: "pname", Kind: types.KindUniText},
	}}))
	must(cat.AddIndex(&catalog.Index{Name: "idx_id", Table: "names", Column: "id", Kind: sql.IndexBTree, File: 3}))
	must(cat.AddIndex(&catalog.Index{Name: "idx_mtree", Table: "names", Column: "name", Kind: sql.IndexMTree, File: 4}))
	must(cat.AddIndex(&catalog.Index{Name: "idx_mdi", Table: "names", Column: "name", Kind: sql.IndexMDI, File: 5}))

	nameKeys := []string{"nehru", "neru", "gandi", "patel", "menon", "bose", "varma", "ʃarma"}
	var keys []string
	for i := 0; i < 1000; i++ {
		keys = append(keys, nameKeys[i%len(nameKeys)])
	}
	// Integer histograms are keyed the way ANALYZE keys them: the
	// hex-encoded order-preserving encoding.
	idKeys := make([]string, 1000)
	for i := range idKeys {
		idKeys[i] = hex.EncodeToString(types.KeyOf(types.NewInt(int64(i))))
	}
	cat.SetStats("names", &catalog.TableStats{
		Rows: 10000, Pages: 200,
		Columns: map[string]*catalog.ColumnStats{
			"name":  {Hist: histogram.Build(keys, 10), AvgWidth: 8},
			"id":    {Hist: histogram.Build(idKeys, 10), AvgWidth: 4},
			"pdist": {Hist: histogram.Build(idKeys, 10), AvgWidth: 4},
		},
	})
	cat.SetStats("probe", &catalog.TableStats{
		Rows: 100, Pages: 2,
		Columns: map[string]*catalog.ColumnStats{
			"pname": {Hist: histogram.Build(nameKeys, 10), AvgWidth: 8},
		},
	})
	return cat
}

func mkPlanner(cat *catalog.Catalog) *Planner {
	return &Planner{Cat: cat, Phon: phonetic.DefaultRegistry(), Opts: DefaultOptions()}
}

func planQuery(tb testing.TB, p *Planner, q string) *Node {
	tb.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		tb.Fatalf("parse %q: %v", q, err)
	}
	node, err := p.Plan(stmt.(*sql.Select))
	if err != nil {
		tb.Fatalf("plan %q: %v", q, err)
	}
	return node
}

func planContains(n *Node, op OpType) bool {
	if n.Op == op {
		return true
	}
	for _, c := range n.Children {
		if planContains(c, op) {
			return true
		}
	}
	return false
}

func TestSeqScanForUnselectivePredicate(t *testing.T) {
	p := mkPlanner(testCatalog())
	// id > 'a' is ~96% selective: sequential scan must win.
	node := planQuery(t, p, `SELECT count(*) FROM names WHERE pdist > 0`)
	if planContains(node, OpBTreeScan) {
		t.Errorf("unselective predicate chose an index scan:\n%s", Format(node))
	}
}

func TestBTreeScanForEquality(t *testing.T) {
	p := mkPlanner(testCatalog())
	node := planQuery(t, p, `SELECT * FROM names WHERE id = 5`)
	if !planContains(node, OpBTreeScan) {
		t.Errorf("equality on indexed column did not choose the B-tree:\n%s", Format(node))
	}
	// Disabling index scans falls back to sequential.
	p.Opts.EnableIndexScan = false
	node = planQuery(t, p, `SELECT * FROM names WHERE id = 5`)
	if planContains(node, OpBTreeScan) {
		t.Errorf("enable_indexscan=off ignored:\n%s", Format(node))
	}
}

func TestPsiScanConsidersMetricIndexes(t *testing.T) {
	p := mkPlanner(testCatalog())
	node := planQuery(t, p, `SELECT count(*) FROM names WHERE name LEXEQUAL 'zzzz-rare' THRESHOLD 1`)
	// With a rare query at k=1 the M-Tree candidate should beat the 200-page
	// sequential scan given the Table 3 cost model.
	if !planContains(node, OpMTreeScan) && !planContains(node, OpMDIScan) {
		t.Logf("plan:\n%s", Format(node))
		// Not a hard failure: the cost model may price the metric scan
		// higher; but the candidate must at least exist when selectivity is
		// tiny — check by forcing the seq scan cost up via threshold 0.
		node0 := planQuery(t, p, `SELECT count(*) FROM names WHERE name LEXEQUAL 'zzzz-rare' THRESHOLD 0`)
		if !planContains(node0, OpMTreeScan) && !planContains(node0, OpMDIScan) {
			t.Errorf("no metric access path even at k=0:\n%s", Format(node0))
		}
	}
	p.Opts.EnableMTree = false
	p.Opts.EnableMDI = false
	node = planQuery(t, p, `SELECT count(*) FROM names WHERE name LEXEQUAL 'x' THRESHOLD 0`)
	if planContains(node, OpMTreeScan) || planContains(node, OpMDIScan) {
		t.Errorf("disabled metric indexes still used:\n%s", Format(node))
	}
}

func TestHashJoinForEquality(t *testing.T) {
	p := mkPlanner(testCatalog())
	node := planQuery(t, p, `SELECT count(*) FROM probe, names WHERE probe.pid = names.id`)
	if !planContains(node, OpHashJoin) {
		t.Errorf("equi-join did not choose hash join:\n%s", Format(node))
	}
	p.Opts.EnableHashJoin = false
	node = planQuery(t, p, `SELECT count(*) FROM probe, names WHERE probe.pid = names.id`)
	if planContains(node, OpHashJoin) {
		t.Errorf("enable_hashjoin=off ignored:\n%s", Format(node))
	}
	if !planContains(node, OpNLJoin) {
		t.Errorf("no fallback join:\n%s", Format(node))
	}
}

func TestPsiJoinChosen(t *testing.T) {
	p := mkPlanner(testCatalog())
	node := planQuery(t, p, `SELECT count(*) FROM probe, names WHERE probe.pname LEXEQUAL names.name THRESHOLD 2`)
	if !planContains(node, OpPsiJoin) && !planContains(node, OpPsiIndexJoin) {
		t.Errorf("Ψ join conjunct did not produce a Ψ join:\n%s", Format(node))
	}
}

func TestJoinOrderPrefersSmallOuter(t *testing.T) {
	p := mkPlanner(testCatalog())
	node := planQuery(t, p, `SELECT count(*) FROM names, probe WHERE probe.pname LEXEQUAL names.name THRESHOLD 2`)
	// The planner enumerates both orders; the Ψ join's cost is symmetric in
	// the pair count, but the materialized inner should be the smaller
	// relation when an index join is not in play. Just assert it planned.
	if node.EstCost <= 0 {
		t.Error("cost must be positive")
	}
}

func TestForceOrder(t *testing.T) {
	p := mkPlanner(testCatalog())
	p.Opts.ForceOrder = []string{"names", "probe"}
	node := planQuery(t, p, `SELECT count(*) FROM probe, names WHERE probe.pid = names.id`)
	// Left-most leaf must be the names scan.
	cur := node
	for len(cur.Children) > 0 {
		cur = cur.Children[0]
	}
	if cur.Table != "names" {
		t.Errorf("forced order ignored; leftmost leaf is %q:\n%s", cur.Table, Format(node))
	}
}

func TestUnknownColumnAndTableErrors(t *testing.T) {
	p := mkPlanner(testCatalog())
	for _, q := range []string{
		`SELECT ghost FROM names`,
		`SELECT * FROM ghost`,
		`SELECT * FROM names WHERE ghost = 1`,
		`SELECT * FROM names n1, names n2 WHERE id = 1`, // duplicate rel name
	} {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if _, err := p.Plan(stmt.(*sql.Select)); err == nil {
			t.Errorf("Plan(%q) should fail", q)
		}
	}
	// Ambiguous column across two relations.
	stmt, _ := sql.Parse(`SELECT name FROM names a, names b WHERE a.id = b.id`)
	if _, err := p.Plan(stmt.(*sql.Select)); err == nil {
		t.Error("duplicate alias must fail")
	}
}

func TestAggregatePlanShape(t *testing.T) {
	p := mkPlanner(testCatalog())
	node := planQuery(t, p, `SELECT count(*), sum(id) FROM names WHERE id < 3`)
	if node.Op != OpAggregate {
		t.Fatalf("top = %s", node.Op)
	}
	if len(node.Aggs) != 2 || node.Aggs[0].Kind != sql.FuncCount || node.Aggs[1].Kind != sql.FuncSum {
		t.Errorf("aggs = %+v", node.Aggs)
	}
	// Non-grouped item must be rejected.
	stmt, _ := sql.Parse(`SELECT id, count(*) FROM names`)
	if _, err := p.Plan(stmt.(*sql.Select)); err == nil {
		t.Error("bare column beside aggregate without GROUP BY must fail")
	}
}

func TestProjectionSchema(t *testing.T) {
	p := mkPlanner(testCatalog())
	node := planQuery(t, p, `SELECT id AS ident, text(name) FROM names`)
	if node.Op != OpProject {
		t.Fatalf("top = %s", node.Op)
	}
	if node.ColNames[0] != "ident" {
		t.Errorf("alias lost: %v", node.ColNames)
	}
	if node.Cols[1].Kind != types.KindText {
		t.Errorf("text() kind = %v", node.Cols[1].Kind)
	}
}

func TestSessionThresholdFlowsIntoPlan(t *testing.T) {
	p := mkPlanner(testCatalog())
	p.Opts.Threshold = 4
	node := planQuery(t, p, `SELECT count(*) FROM names WHERE name LEXEQUAL 'nehru'`)
	s := Format(node)
	if !strings.Contains(s, "k=4") {
		t.Errorf("session threshold not applied:\n%s", s)
	}
}

func TestCompilerErrors(t *testing.T) {
	comp := &Compiler{Schema: []ColInfo{{Rel: "t", Name: "a", Kind: types.KindInt}}}
	// Unknown column.
	if _, err := comp.Compile(&sql.ColumnRef{Column: "zz"}); err == nil {
		t.Error("unknown column must fail")
	}
	// Incomparable kinds.
	bad := &sql.Compare{Op: sql.OpLt,
		Left:  &sql.ColumnRef{Column: "a"},
		Right: &sql.Literal{Value: types.NewText("x")}}
	if _, err := comp.Compile(bad); err == nil {
		t.Error("int < text must fail at compile time")
	}
	// unitext arity.
	if _, err := comp.Compile(&sql.FuncCall{Kind: sql.FuncUniText, Args: []sql.Expr{
		&sql.Literal{Value: types.NewText("x")}}}); err == nil {
		t.Error("unitext/1 must fail")
	}
	// Aggregate in scalar position.
	if _, err := comp.Compile(&sql.FuncCall{Kind: sql.FuncSum, Args: []sql.Expr{
		&sql.ColumnRef{Column: "a"}}}); err == nil {
		t.Error("aggregate in scalar context must fail")
	}
}

func TestExprStringRendering(t *testing.T) {
	comp := &Compiler{Schema: []ColInfo{{Rel: "t", Name: "a", Kind: types.KindUniText}}, DefaultThreshold: 2}
	stmt, _ := sql.Parse(`SELECT * FROM x WHERE a LEXEQUAL 'q' IN tamil AND NOT a = 'z'`)
	sel := stmt.(*sql.Select)
	ce, err := comp.Compile(sel.Where)
	if err != nil {
		t.Fatal(err)
	}
	s := ExprString(ce)
	for _, want := range []string{"Ψ", "k=2", "tamil", "NOT"} {
		if !strings.Contains(s, want) {
			t.Errorf("ExprString = %q missing %q", s, want)
		}
	}
}

func TestMTreeFractionMonotone(t *testing.T) {
	prev := 0.0
	for k := 0; k <= 6; k++ {
		f := MTreeFraction(k)
		if f < prev || f > 1 {
			t.Errorf("MTreeFraction(%d) = %g not monotone in [0,1]", k, f)
		}
		prev = f
	}
	if MTreeFraction(10) != 1 {
		t.Error("fraction must saturate at 1")
	}
}

func TestMDIFraction(t *testing.T) {
	if MDIFraction(1, 10) >= MDIFraction(3, 10) {
		t.Error("MDI fraction must grow with threshold")
	}
	if MDIFraction(3, 0) > 1 {
		t.Error("degenerate avg length must clamp")
	}
}

func TestWalkVisitsAll(t *testing.T) {
	e := &Neg{Inner: &AndOr{
		L: &Cmp{Op: sql.OpEq, L: &ColIdx{Idx: 0}, R: &Const{Val: types.NewInt(1)}},
		R: &Omega{L: &ColIdx{Idx: 1}, R: &Const{Val: types.NewText("history")}},
	}}
	count := 0
	Walk(e, func(Expr) { count++ })
	if count != 8 {
		t.Errorf("Walk visited %d nodes, want 8", count)
	}
}

func TestEstimatedRowsFallback(t *testing.T) {
	scan := &Node{Op: OpSeqScan, Table: "t", EstRows: 40}
	proj := &Node{Op: OpProject, Children: []*Node{scan}} // planner left EstRows zero
	if got := proj.EstimatedRows(); got != 40 {
		t.Errorf("pass-through EstimatedRows = %v, want 40 (widest child)", got)
	}
	scan.EstRows = 0
	if got := proj.EstimatedRows(); got != 0 {
		t.Errorf("no estimates anywhere: EstimatedRows = %v, want 0", got)
	}
	proj.EstRows = 7 // own estimate wins over children
	if got := proj.EstimatedRows(); got != 7 {
		t.Errorf("own estimate: EstimatedRows = %v, want 7", got)
	}
	join := &Node{Op: OpNLJoin, Children: []*Node{
		{Op: OpSeqScan, EstRows: 3},
		{Op: OpMaterialize, Children: []*Node{{Op: OpSeqScan, EstRows: 9}}},
	}}
	if got := join.EstimatedRows(); got != 9 {
		t.Errorf("recursive fallback: EstimatedRows = %v, want 9", got)
	}
	// Format never prints rows=0 for a pass-through node over an estimated scan.
	out := Format(&Node{Op: OpProject, Children: []*Node{{Op: OpSeqScan, Table: "t", EstRows: 40}}})
	if !strings.Contains(out, "Project  (rows=40") {
		t.Errorf("Format output:\n%s", out)
	}
}
