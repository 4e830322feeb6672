package exec

import (
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/types"
)

func filterGtNode(table string, cols []plan.ColInfo, min int64) *plan.Node {
	return &plan.Node{
		Op:       plan.OpFilter,
		Children: []*plan.Node{scanNode(table, cols)},
		Cols:     cols,
		Cond: &plan.Cmp{Op: sql.OpGt,
			L: &plan.ColIdx{Idx: 0, Kind: types.KindInt},
			R: &plan.Const{Val: types.NewInt(min)}},
	}
}

func intTable(n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.NewInt(int64(i))}
	}
	return rows
}

// TestNilCollectorNoWrappers pins the disabled-stats contract: without a
// collector Run builds the bare operators, no instrumentation between them.
func TestNilCollectorNoWrappers(t *testing.T) {
	env := newMockEnv()
	env.tables["t"] = intTable(4)
	cols := []plan.ColInfo{{Rel: "t", Name: "id", Kind: types.KindInt}}
	cur, err := Run(env, filterGtNode("t", cols, 1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	f, ok := cur.src.(*vectorFilterIter)
	if !ok {
		t.Fatalf("root operator is %T, want *vectorFilterIter", cur.src)
	}
	if _, ok := f.child.(*scanIter); !ok {
		t.Fatalf("filter child is %T, want *scanIter", f.child)
	}
}

func TestStatsCollected(t *testing.T) {
	env := newMockEnv()
	env.tables["t"] = intTable(5)
	cols := []plan.ColInfo{{Rel: "t", Name: "id", Kind: types.KindInt}}
	node := filterGtNode("t", cols, 2)
	es := NewExecStats()
	cur, err := Run(env, node, es, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.All(); err != nil {
		t.Fatal(err)
	}
	fa, ok := es.Actual(node)
	if !ok {
		t.Fatal("no stats for filter node")
	}
	if fa.Rows != 2 || fa.Loops != 1 {
		t.Errorf("filter actual = %+v, want rows=2 loops=1", fa)
	}
	sa, ok := es.Actual(node.Children[0])
	if !ok {
		t.Fatal("no stats for scan node")
	}
	if sa.Rows != 5 || sa.Loops != 1 {
		t.Errorf("scan actual = %+v, want rows=5 loops=1", sa)
	}
	out := plan.FormatAnalyze(node, es.Actual)
	if !strings.Contains(out, "(actual rows=2 loops=1 time=") {
		t.Errorf("FormatAnalyze output:\n%s", out)
	}
}

// TestMTreeScanAnalyze drives a Ψ M-Tree index scan under the collector: the
// paper's LexEQUAL access path must report rows, index pages and timing.
func TestMTreeScanAnalyze(t *testing.T) {
	env := newMockEnv()
	env.tables["names"] = []types.Tuple{
		{u("nehru", types.LangEnglish)},
		{u("neru", types.LangEnglish)},
		{u("patel", types.LangEnglish)},
	}
	env.mtree["mt_names"] = struct {
		table string
		col   int
	}{table: "names", col: 0}
	cols := []plan.ColInfo{{Rel: "names", Name: "n", Kind: types.KindUniText}}
	node := &plan.Node{
		Op: plan.OpMTreeScan, Table: "names", Cols: cols, EstRows: 2,
		Index: &plan.IndexCond{
			Index:     "mt_names",
			Probe:     &plan.Const{Val: types.NewText("nehru")},
			Threshold: 1,
			Langs:     []types.LangID{types.LangEnglish},
		},
	}
	es := NewExecStats()
	cur, err := Run(env, node, es, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Ψ index scan rows = %v", rows)
	}
	a, ok := es.Actual(node)
	if !ok || a.Rows != 2 {
		t.Errorf("scan actual = %+v, want rows=2", a)
	}
	if cur.Stats.IndexPages == 0 {
		t.Error("index pages not recorded")
	}
	out := plan.FormatAnalyze(node, es.Actual)
	if !strings.Contains(out, "IndexScan(MTree)") || !strings.Contains(out, "actual rows=2") {
		t.Errorf("FormatAnalyze output:\n%s", out)
	}
}

// TestNLJoinLoopsCounted: the materialized inner side of a nested-loops join
// reports one loop per outer row under a timed collector too.
func TestNLJoinLoopsCounted(t *testing.T) {
	env := newMockEnv()
	env.tables["a"] = intTable(3)
	env.tables["b"] = intTable(2)
	aCols := []plan.ColInfo{{Rel: "a", Name: "x", Kind: types.KindInt}}
	bCols := []plan.ColInfo{{Rel: "b", Name: "y", Kind: types.KindInt}}
	mat := &plan.Node{Op: plan.OpMaterialize, Children: []*plan.Node{scanNode("b", bCols)}, Cols: bCols}
	node := &plan.Node{
		Op:       plan.OpNLJoin,
		Children: []*plan.Node{scanNode("a", aCols), mat},
		Cols:     append(append([]plan.ColInfo{}, aCols...), bCols...),
	}
	es := NewExecStats()
	cur, err := Run(env, node, es, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("cross product rows = %d", len(rows))
	}
	ma, ok := es.Actual(mat)
	if !ok {
		t.Fatal("no stats for materialize node")
	}
	if ma.Loops != 3 {
		t.Errorf("materialize loops = %d, want 3 (one per outer row)", ma.Loops)
	}
	if ma.Rows != 6 {
		t.Errorf("materialize total rows = %d, want 6", ma.Rows)
	}
	// The base scan under the materialize runs exactly once.
	if sa, ok := es.Actual(mat.Children[0]); !ok || sa.Rows != 2 || sa.Loops != 1 {
		t.Errorf("inner scan actual = %+v, want rows=2 loops=1", sa)
	}
}

func BenchmarkNextStatsDisabled(b *testing.B) {
	benchmarkNext(b, nil)
}

func BenchmarkNextStatsEnabled(b *testing.B) {
	benchmarkNext(b, NewExecStats())
}

func benchmarkNext(b *testing.B, es *ExecStats) {
	env := newMockEnv()
	env.tables["t"] = intTable(1024)
	cols := []plan.ColInfo{{Rel: "t", Name: "id", Kind: types.KindInt}}
	node := filterGtNode("t", cols, 511)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := Run(env, node, es, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cur.All(); err != nil {
			b.Fatal(err)
		}
	}
}
