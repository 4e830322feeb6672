package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// mockEnv backs the executor with in-memory tables; index probes answer by
// brute force so operator logic can be tested without the storage stack.
// Scans serve the tables as encoded records in fake pages of mockPageRows
// records, encoded once per table (like a real heap) so allocation tests see
// only the executor's own allocations.
type mockEnv struct {
	tables map[string][]types.Tuple
	g2p    *phonetic.SharedCache
	net    *wordnet.Net
	// mtreeCol maps index name -> (table, column position).
	mtree map[string]struct {
		table string
		col   int
	}
	mu    sync.Mutex
	pages map[string]mockPages
	reads map[string]*atomic.Int64 // pages read by record scans, per table
	// pageRows is the records a page holds; 0 means mockPageRows.
	pageRows int
	// verified, when set, gives row i's slot a label Ω verifies from the
	// text whatever the text names — types.Unlabelled (written with no
	// taxonomy loaded) or types.ManySynsets (a homonym's) — or returns 0 for
	// a row labelled under net, as a heap labels it.
	verified func(i int) uint32
}

// labeller labels the keyed column of row i of a table as a heap slot
// stores it: under net (types.Unlabelled when nil), except the rows verified
// gives a sentinel.
type labeller struct {
	net      *wordnet.Net
	verified func(i int) uint32
}

func (l labeller) label(i int, t types.Tuple, keyed int) uint32 {
	if l.verified != nil {
		if label := l.verified(i); label != 0 {
			return label
		}
	}
	return l.net.LabelOf(t, keyed)
}

// labels is the labeller of m's tables.
func (m *mockEnv) labels() labeller { return labeller{m.net, m.verified} }

// mockPages is one table's encoded form and the rows it was encoded from:
// each page's records, and the same laid out as the page views a heap scan
// hands over.
type mockPages struct {
	rows  []types.Tuple
	net   *wordnet.Net // the taxonomy the slots were labelled under
	pages [][][]byte
	views []storage.Page
}

func newMockEnv() *mockEnv {
	return &mockEnv{
		tables: map[string][]types.Tuple{},
		g2p:    phonetic.NewSharedCache(phonetic.DefaultRegistry(), 0),
		mtree: map[string]struct {
			table string
			col   int
		}{},
		pages: map[string]mockPages{},
	}
}

// mockPageRows is the mock heap's page capacity: small, so parallel-scan
// tests exercise multi-morsel partitioning with few rows.
const mockPageRows = 2

func (m *mockEnv) TablePages(table string) (int64, error) {
	rows, ok := m.tables[table]
	if !ok {
		return 0, fmt.Errorf("mock: no table %q", table)
	}
	return int64((len(rows) + m.perPage() - 1) / m.perPage()), nil
}

// perPage is the records one of m's pages holds.
func (m *mockEnv) perPage() int {
	if m.pageRows > 0 {
		return m.pageRows
	}
	return mockPageRows
}

// pagesFor encodes a table's rows into pages as the storage layer does — each
// row's record, and its slot keys (types.AppendSlotKeys, labelled by
// m.labels) — re-encoding when a test has replaced the table or the taxonomy
// since.
func (m *mockEnv) pagesFor(table string) [][][]byte { return m.encoded(table).pages }

// encoded is pagesFor's table encoded, with its page views.
func (m *mockEnv) encoded(table string) mockPages {
	m.mu.Lock()
	defer m.mu.Unlock()
	rows := m.tables[table]
	if p, ok := m.pages[table]; ok && p.net == m.net && len(p.rows) == len(rows) && (len(rows) == 0 || &p.rows[0] == &rows[0]) {
		return p
	}
	p := mockPages{rows: rows, net: m.net}
	labels := m.labels()
	keyed, keyBytes := types.KeyedColumn(mockKinds(rows))
	var keys []byte
	for start := 0; start < len(rows); start += m.perPage() {
		var page [][]byte
		view := storage.NewPage(keyBytes)
		for i, t := range rows[start:min(start+m.perPage(), len(rows))] {
			rec := types.EncodeTuple(t)
			page = append(page, rec)
			if keys = types.AppendSlotKeys(keys[:0], t, keyed, labels.label(start+i, t, keyed)); !view.Add(rec, keys) {
				panic(fmt.Sprintf("mock: %d records overflow a page", m.perPage()))
			}
		}
		p.pages = append(p.pages, page)
		p.views = append(p.views, view)
	}
	m.pages[table] = p
	return p
}

// mockKinds is the column kinds a schema would declare for rows: each
// column's, the kind of its first non-NULL value.
func mockKinds(rows []types.Tuple) []types.Kind {
	var kinds []types.Kind
	for _, t := range rows {
		for i, v := range t {
			if i == len(kinds) {
				kinds = append(kinds, types.KindNull)
			}
			if kinds[i] == types.KindNull {
				kinds[i] = v.Kind()
			}
		}
	}
	return kinds
}

// pageReads is the count of table's pages its record scans have read.
func (m *mockEnv) pageReads(table string) *atomic.Int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.reads == nil {
		m.reads = map[string]*atomic.Int64{}
	}
	if m.reads[table] == nil {
		m.reads[table] = new(atomic.Int64)
	}
	return m.reads[table]
}

type mockRecordScan struct {
	pages []storage.Page
	pos   int
	reads *atomic.Int64
}

func (s *mockRecordScan) NextPage(fn func(pg storage.Page) error) (bool, error) {
	if s.pos >= len(s.pages) {
		return false, nil
	}
	s.reads.Add(1)
	if err := fn(s.pages[s.pos]); err != nil {
		return true, err
	}
	s.pos++
	return true, nil
}

// perRecord serves inner's next page to fn one live record at a time, each
// as a page of its own, for a test scan that acts around each record: each
// runs once per record, with serve handing the record to fn, and its error
// stops the page.
func perRecord(inner RecordScan, fn func(pg storage.Page) error, each func(serve func() error) error) (bool, error) {
	return inner.NextPage(func(pg storage.Page) error {
		for i := range pg.Len() {
			rec, live := pg.Record(i)
			if !live {
				continue
			}
			keys, _ := pg.Keys(i)
			one := storage.NewPage(len(keys))
			one.Add(rec, keys)
			if err := each(func() error { return fn(one) }); err != nil {
				return err
			}
		}
		return nil
	})
}

func (s *mockRecordScan) Close() error { return nil }

func (m *mockEnv) ScanRecords(table string, lo, hi int64) (RecordScan, error) {
	if _, ok := m.tables[table]; !ok {
		return nil, fmt.Errorf("mock: no table %q", table)
	}
	pages := m.encoded(table).views
	lo, hi = min(lo, int64(len(pages))), min(hi, int64(len(pages)))
	return &mockRecordScan{pages: pages[lo:hi], reads: m.pageReads(table)}, nil
}

func (m *mockEnv) FetchRIDs(table string, rids []storage.RID) ([]types.Tuple, error) {
	rows := m.tables[table]
	out := make([]types.Tuple, 0, len(rids))
	for _, rid := range rids {
		if int(rid.Slot) >= len(rows) {
			return nil, fmt.Errorf("mock: bad rid %v", rid)
		}
		out = append(out, rows[rid.Slot])
	}
	return out, nil
}

func (m *mockEnv) IndexSearch(string, []byte, []byte) ([]storage.RID, int, error) {
	return nil, 0, fmt.Errorf("mock: no btree indexes")
}

func (m *mockEnv) MetricSearch(index string, phoneme string, threshold int) ([]storage.RID, int, error) {
	spec, ok := m.mtree[index]
	if !ok {
		return nil, 0, fmt.Errorf("mock: no mtree %q", index)
	}
	var rids []storage.RID
	for i, row := range m.tables[spec.table] {
		v := row[spec.col]
		if v.IsNull() {
			continue
		}
		ph := m.g2p.Registry().ToPhoneme(v.UniText())
		if phonetic.WithinDistance(ph, phoneme, threshold) {
			rids = append(rids, storage.RID{Slot: uint16(i)})
		}
	}
	return rids, 1, nil
}

func (m *mockEnv) CustomOperator(string) func(a, b types.Value) (bool, error) { return nil }

func (m *mockEnv) G2P() *phonetic.SharedCache { return m.g2p }
func (m *mockEnv) WordNet() *wordnet.Net      { return m.net }

func u(text string, lang types.LangID) types.Value {
	return types.NewUniText(phonetic.DefaultRegistry().Materialize(types.Compose(text, lang)))
}

func scanNode(table string, cols []plan.ColInfo) *plan.Node {
	return &plan.Node{Op: plan.OpSeqScan, Table: table, Cols: cols, EstRows: 1}
}

func runAll(t *testing.T, env Env, node *plan.Node) []types.Tuple {
	t.Helper()
	cur, err := Run(env, node, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestFilterAndProject(t *testing.T) {
	env := newMockEnv()
	env.tables["t"] = []types.Tuple{
		{types.NewInt(1), types.NewText("a")},
		{types.NewInt(2), types.NewText("b")},
		{types.NewInt(3), types.NewText("c")},
	}
	cols := []plan.ColInfo{{Rel: "t", Name: "id", Kind: types.KindInt}, {Rel: "t", Name: "s", Kind: types.KindText}}
	node := &plan.Node{
		Op: plan.OpProject,
		Children: []*plan.Node{{
			Op:       plan.OpFilter,
			Children: []*plan.Node{scanNode("t", cols)},
			Cols:     cols,
			Cond: &plan.Cmp{Op: sql.OpGt,
				L: &plan.ColIdx{Idx: 0, Kind: types.KindInt},
				R: &plan.Const{Val: types.NewInt(1)}},
		}},
		Cols:     []plan.ColInfo{{Name: "s", Kind: types.KindText}},
		ColNames: []string{"s"},
		Projs:    []plan.Expr{&plan.ColIdx{Idx: 1, Kind: types.KindText}},
	}
	rows := runAll(t, env, node)
	if len(rows) != 2 || rows[0][0].Text() != "b" || rows[1][0].Text() != "c" {
		t.Errorf("rows = %v", rows)
	}
}

func TestNLJoinCrossProduct(t *testing.T) {
	env := newMockEnv()
	env.tables["a"] = []types.Tuple{{types.NewInt(1)}, {types.NewInt(2)}}
	env.tables["b"] = []types.Tuple{{types.NewText("x")}, {types.NewText("y")}, {types.NewText("z")}}
	aCols := []plan.ColInfo{{Rel: "a", Name: "n", Kind: types.KindInt}}
	bCols := []plan.ColInfo{{Rel: "b", Name: "s", Kind: types.KindText}}
	node := &plan.Node{
		Op:       plan.OpNLJoin,
		Children: []*plan.Node{scanNode("a", aCols), scanNode("b", bCols)},
		Cols:     append(append([]plan.ColInfo{}, aCols...), bCols...),
	}
	rows := runAll(t, env, node)
	if len(rows) != 6 {
		t.Errorf("cross product rows = %d", len(rows))
	}
}

func TestHashJoinMatchesAndSkipsNulls(t *testing.T) {
	env := newMockEnv()
	env.tables["l"] = []types.Tuple{
		{types.NewInt(1), types.NewText("l1")},
		{types.NewInt(2), types.NewText("l2")},
		{types.Null(), types.NewText("l3")},
	}
	env.tables["r"] = []types.Tuple{
		{types.NewInt(2), types.NewText("r2")},
		{types.NewInt(2), types.NewText("r2b")},
		{types.Null(), types.NewText("r3")},
	}
	lCols := []plan.ColInfo{{Rel: "l", Name: "k", Kind: types.KindInt}, {Rel: "l", Name: "v", Kind: types.KindText}}
	rCols := []plan.ColInfo{{Rel: "r", Name: "k", Kind: types.KindInt}, {Rel: "r", Name: "v", Kind: types.KindText}}
	node := &plan.Node{
		Op:        plan.OpHashJoin,
		Children:  []*plan.Node{scanNode("l", lCols), scanNode("r", rCols)},
		Cols:      append(append([]plan.ColInfo{}, lCols...), rCols...),
		HashLeft:  0,
		HashRight: 2,
	}
	rows := runAll(t, env, node)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if r[0].Int() != 2 {
			t.Errorf("bad join row %v", r)
		}
	}
}

func TestPsiJoinOperator(t *testing.T) {
	env := newMockEnv()
	env.tables["a"] = []types.Tuple{{u("nehru", types.LangEnglish)}, {u("bose", types.LangEnglish)}}
	env.tables["b"] = []types.Tuple{{u("நேரு", types.LangTamil)}, {u("patel", types.LangEnglish)}}
	aCols := []plan.ColInfo{{Rel: "a", Name: "n", Kind: types.KindUniText}}
	bCols := []plan.ColInfo{{Rel: "b", Name: "n", Kind: types.KindUniText}}
	node := &plan.Node{
		Op:       plan.OpPsiJoin,
		Children: []*plan.Node{scanNode("a", aCols), scanNode("b", bCols)},
		Cols:     append(append([]plan.ColInfo{}, aCols...), bCols...),
		Cond:     &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.ColIdx{Idx: 1}, Threshold: 2},
	}
	rows := runAll(t, env, node)
	if len(rows) != 1 {
		t.Fatalf("Ψ join rows = %v", rows)
	}
	if rows[0][0].UniText().Text != "nehru" {
		t.Errorf("row = %v", rows[0])
	}
}

func TestPsiIndexJoinOperator(t *testing.T) {
	env := newMockEnv()
	env.tables["outer"] = []types.Tuple{{u("nehru", types.LangEnglish)}, {u("zzz", types.LangEnglish)}}
	env.tables["inner"] = []types.Tuple{{u("neru", types.LangEnglish)}, {u("patel", types.LangEnglish)}}
	env.mtree["ix"] = struct {
		table string
		col   int
	}{"inner", 0}
	oCols := []plan.ColInfo{{Rel: "o", Name: "n", Kind: types.KindUniText}}
	iCols := []plan.ColInfo{{Rel: "i", Name: "n", Kind: types.KindUniText}}
	node := &plan.Node{
		Op:       plan.OpPsiIndexJoin,
		Children: []*plan.Node{scanNode("outer", oCols), scanNode("inner", iCols)},
		Cols:     append(append([]plan.ColInfo{}, oCols...), iCols...),
		Cond:     &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.ColIdx{Idx: 1}, Threshold: 1},
		Index:    &plan.IndexCond{Index: "ix"},
	}
	rows := runAll(t, env, node)
	if len(rows) != 1 || rows[0][1].UniText().Text != "neru" {
		t.Errorf("index Ψ join rows = %v", rows)
	}

	// A NULL outer value probes nothing; a non-text one fails with the
	// operand-kind error, its operands in the order the query wrote them.
	env.tables["outer"] = []types.Tuple{{types.Null()}, {types.NewText("nehru")}, {types.NewInt(7)}}
	for _, outerLeft := range []bool{true, false} {
		node.Cond = &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.ColIdx{Idx: 1}, Threshold: 1}
		want := "exec: LEXEQUAL operands must be text, got INT and UNITEXT"
		if !outerLeft {
			node.Cond = &plan.Psi{L: &plan.ColIdx{Idx: 1}, R: &plan.ColIdx{Idx: 0}, Threshold: 1}
			want = "exec: LEXEQUAL operands must be text, got UNITEXT and INT"
		}
		cur, err := Run(env, node, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.All(); fmt.Sprint(err) != want {
			t.Errorf("outer left=%v: error %v, want %q", outerLeft, err, want)
		}
		// Before the error, the TEXT row's one candidate is rechecked.
		if cur.Stats.PsiEvaluations != 1 {
			t.Errorf("outer left=%v: %d Ψ evaluations, want 1", outerLeft, cur.Stats.PsiEvaluations)
		}
	}
}

func TestOmegaJoinOperator(t *testing.T) {
	net := wordnet.Generate(wordnet.Config{Synsets: 2000, Seed: 9})
	env := newMockEnv()
	env.net = net
	env.tables["cat"] = []types.Tuple{
		{u("historiography", types.LangEnglish)},
		{u("physics", types.LangEnglish)},
	}
	env.tables["concept"] = []types.Tuple{{u("history", types.LangEnglish)}}
	lCols := []plan.ColInfo{{Rel: "c", Name: "v", Kind: types.KindUniText}}
	rCols := []plan.ColInfo{{Rel: "k", Name: "v", Kind: types.KindUniText}}
	node := &plan.Node{
		Op:       plan.OpOmegaJoin,
		Children: []*plan.Node{scanNode("cat", lCols), scanNode("concept", rCols)},
		Cols:     append(append([]plan.ColInfo{}, lCols...), rCols...),
		Cond:     &plan.Omega{L: &plan.ColIdx{Idx: 0}, R: &plan.ColIdx{Idx: 1}},
	}
	rows := runAll(t, env, node)
	if len(rows) != 1 || rows[0][0].UniText().Text != "historiography" {
		t.Errorf("Ω join rows = %v", rows)
	}
}

func TestAggregateOperator(t *testing.T) {
	env := newMockEnv()
	env.tables["t"] = []types.Tuple{
		{types.NewText("a"), types.NewInt(1)},
		{types.NewText("a"), types.NewInt(2)},
		{types.NewText("b"), types.NewInt(10)},
		{types.NewText("b"), types.Null()},
	}
	cols := []plan.ColInfo{{Rel: "t", Name: "g", Kind: types.KindText}, {Rel: "t", Name: "v", Kind: types.KindInt}}
	node := &plan.Node{
		Op:       plan.OpAggregate,
		Children: []*plan.Node{scanNode("t", cols)},
		Cols: []plan.ColInfo{
			{Name: "g", Kind: types.KindText},
			{Name: "count", Kind: types.KindInt},
			{Name: "sum", Kind: types.KindFloat},
			{Name: "min", Kind: types.KindInt},
		},
		ColNames: []string{"g", "count", "sum", "min"},
		GroupBy:  []plan.Expr{&plan.ColIdx{Idx: 0, Kind: types.KindText}},
		Aggs: []plan.AggSpec{
			{Kind: sql.FuncCount},
			{Kind: sql.FuncSum, Arg: &plan.ColIdx{Idx: 1, Kind: types.KindInt}},
			{Kind: sql.FuncMin, Arg: &plan.ColIdx{Idx: 1, Kind: types.KindInt}},
		},
		Projs: []plan.Expr{&plan.ColIdx{Idx: 0, Kind: types.KindText}, nil, nil, nil},
	}
	rows := runAll(t, env, node)
	if len(rows) != 2 {
		t.Fatalf("groups = %v", rows)
	}
	byKey := map[string]types.Tuple{}
	for _, r := range rows {
		byKey[r[0].Text()] = r
	}
	a, b := byKey["a"], byKey["b"]
	if a[1].Int() != 2 || a[2].Float() != 3 || a[3].Int() != 1 {
		t.Errorf("group a = %v", a)
	}
	// COUNT(*) counts all rows; SUM skips the NULL.
	if b[1].Int() != 2 || b[2].Float() != 10 || b[3].Int() != 10 {
		t.Errorf("group b = %v", b)
	}
}

func TestGlobalAggregateOnEmptyInput(t *testing.T) {
	env := newMockEnv()
	env.tables["t"] = nil
	cols := []plan.ColInfo{{Rel: "t", Name: "v", Kind: types.KindInt}}
	node := &plan.Node{
		Op:       plan.OpAggregate,
		Children: []*plan.Node{scanNode("t", cols)},
		Cols:     []plan.ColInfo{{Name: "count", Kind: types.KindInt}, {Name: "sum", Kind: types.KindFloat}},
		ColNames: []string{"count", "sum"},
		Aggs: []plan.AggSpec{
			{Kind: sql.FuncCount},
			{Kind: sql.FuncSum, Arg: &plan.ColIdx{Idx: 0, Kind: types.KindInt}},
		},
		Projs: []plan.Expr{nil, nil},
	}
	rows := runAll(t, env, node)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Errorf("empty aggregate = %v", rows[0])
	}
}

func TestSortLimitDistinct(t *testing.T) {
	env := newMockEnv()
	env.tables["t"] = []types.Tuple{
		{types.NewInt(3)}, {types.NewInt(1)}, {types.NewInt(2)}, {types.NewInt(1)},
	}
	cols := []plan.ColInfo{{Rel: "t", Name: "v", Kind: types.KindInt}}
	node := &plan.Node{
		Op: plan.OpLimit, LimitN: 2,
		Children: []*plan.Node{{
			Op: plan.OpSort,
			Children: []*plan.Node{{
				Op:       plan.OpDistinct,
				Children: []*plan.Node{scanNode("t", cols)},
				Cols:     cols,
			}},
			Cols:     cols,
			SortKeys: []plan.Expr{&plan.ColIdx{Idx: 0, Kind: types.KindInt}},
			SortDesc: []bool{true},
		}},
		Cols: cols,
	}
	rows := runAll(t, env, node)
	if len(rows) != 2 || rows[0][0].Int() != 3 || rows[1][0].Int() != 2 {
		t.Errorf("rows = %v", rows)
	}
}

func TestEvaluatorScalarFunctions(t *testing.T) {
	env := newMockEnv()
	ev := NewEvaluator(env)
	uni := &plan.Call{Kind: sql.FuncUniText, Args: []plan.Expr{
		&plan.Const{Val: types.NewText("Nehru")},
		&plan.Const{Val: types.NewText("english")},
	}}
	v, err := ev.Eval(uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	ut := v.UniText()
	if ut.Lang != types.LangEnglish || ut.Phoneme == "" {
		t.Errorf("unitext() = %+v", ut)
	}
	for _, tc := range []struct {
		kind sql.FuncKind
		want string
	}{
		{sql.FuncText, "Nehru"},
		{sql.FuncLang, "english"},
		{sql.FuncPhoneme, ut.Phoneme},
	} {
		got, err := ev.Eval(&plan.Call{Kind: tc.kind, Args: []plan.Expr{&plan.Const{Val: v}}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Text() != tc.want {
			t.Errorf("%s = %q, want %q", tc.kind, got.Text(), tc.want)
		}
	}
	// Errors.
	if _, err := ev.Eval(&plan.Call{Kind: sql.FuncLang, Args: []plan.Expr{&plan.Const{Val: types.NewInt(1)}}}, nil); err == nil {
		t.Error("lang(int) must fail")
	}
	if _, err := ev.Eval(&plan.Call{Kind: sql.FuncUniText, Args: []plan.Expr{
		&plan.Const{Val: types.NewText("x")}, &plan.Const{Val: types.NewText("klingon")}}}, nil); err == nil {
		t.Error("unknown language must fail")
	}
}

func TestEvaluatorNullSemantics(t *testing.T) {
	env := newMockEnv()
	ev := NewEvaluator(env)
	cmp := &plan.Cmp{Op: sql.OpEq,
		L: &plan.Const{Val: types.Null()},
		R: &plan.Const{Val: types.NewInt(1)}}
	got, err := ev.EvalBool(cmp, nil)
	if err != nil || got {
		t.Errorf("NULL = 1 evaluated %v, %v", got, err)
	}
	psi := &plan.Psi{L: &plan.Const{Val: types.Null()}, R: &plan.Const{Val: types.NewText("x")}, Threshold: 3}
	if got, err := ev.EvalBool(psi, nil); err != nil || got {
		t.Errorf("Ψ(NULL, x) = %v, %v", got, err)
	}
}

func TestEvaluatorPsiLangFilter(t *testing.T) {
	env := newMockEnv()
	ev := NewEvaluator(env)
	tamil := u("நேரு", types.LangTamil)
	psi := &plan.Psi{
		L:         &plan.Const{Val: tamil},
		R:         &plan.Const{Val: types.NewText("Nehru")},
		Threshold: 2,
		Langs:     []types.LangID{types.LangEnglish}, // Tamil rows excluded
	}
	got, err := ev.EvalBool(psi, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("IN english must exclude a Tamil value")
	}
	psi.Langs = []types.LangID{types.LangEnglish, types.LangTamil}
	if got, _ := ev.EvalBool(psi, nil); !got {
		t.Error("IN english, tamil must admit the Tamil value")
	}
}

func TestOmegaWithoutMatcherErrors(t *testing.T) {
	env := newMockEnv() // no taxonomy
	ev := NewEvaluator(env)
	om := &plan.Omega{L: &plan.Const{Val: types.NewText("a")}, R: &plan.Const{Val: types.NewText("b")}}
	if _, err := ev.Eval(om, nil); err == nil {
		t.Error("Ω without taxonomy must error")
	}
}

func TestRunStatsCount(t *testing.T) {
	env := newMockEnv()
	env.tables["t"] = []types.Tuple{{u("a", types.LangEnglish)}, {u("b", types.LangEnglish)}}
	cols := []plan.ColInfo{{Rel: "t", Name: "n", Kind: types.KindUniText}}
	node := &plan.Node{
		Op:       plan.OpFilter,
		Children: []*plan.Node{scanNode("t", cols)},
		Cols:     cols,
		Cond: &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.Const{Val: types.NewText("a")},
			Threshold: 0},
	}
	cur, err := Run(env, node, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if cur.Stats.PsiEvaluations != 2 {
		t.Errorf("PsiEvaluations = %d", cur.Stats.PsiEvaluations)
	}
	if cur.Stats.RowsOut != 1 {
		t.Errorf("RowsOut = %d", cur.Stats.RowsOut)
	}
}
