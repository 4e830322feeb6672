package mural

import (
	"fmt"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/wordnet"
)

func memEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func loadBooks(t testing.TB, e *Engine) {
	t.Helper()
	e.MustExec(`CREATE TABLE book (id INT, author UNITEXT, title TEXT, price FLOAT)`)
	rows := []string{
		`(1, unitext('Nehru', english), 'Discovery of India', 10.5)`,
		`(2, unitext('नेहरू', hindi), 'Hindustan ki Khoj', 8.0)`,
		`(3, unitext('நேரு', tamil), 'Indiavin Kandupidippu', 9.0)`,
		`(4, unitext('Gandhi', english), 'My Experiments with Truth', 12.0)`,
		`(5, unitext('காந்தி', tamil), 'Satya Sodhanai', 7.5)`,
		`(6, unitext('Tagore', english), 'Gitanjali', 15.0)`,
	}
	e.MustExec(`INSERT INTO book VALUES ` + strings.Join(rows, ", "))
}

func TestCreateInsertSelect(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	res, err := e.Exec(`SELECT id, title FROM book WHERE price < 10 ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].Int() != 2 || res.Rows[1][0].Int() != 3 || res.Rows[2][0].Int() != 5 {
		t.Errorf("wrong rows: %v", res.Rows)
	}
	if res.Cols[0] != "id" || res.Cols[1] != "title" {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestSelectStar(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	res, err := e.Exec(`SELECT * FROM book`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 || len(res.Cols) != 4 {
		t.Fatalf("star: %d rows, %d cols", len(res.Rows), len(res.Cols))
	}
}

// TestLexEqualScanFigure2 runs the paper's Figure 2 query shape.
func TestLexEqualScanFigure2(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	res, err := e.Exec(`SELECT id, title FROM book
		WHERE author LEXEQUAL 'Nehru' THRESHOLD 2 IN english, hindi, tamil ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	// Nehru (en), नेहरू (hi, "neharu", d=1..2), நேரு (ta, "neru", d=1).
	if len(res.Rows) != 3 {
		t.Fatalf("Ψ matches = %d: %v (plan %s)", len(res.Rows), res.Rows, res.Plan)
	}
	for i, want := range []int64{1, 2, 3} {
		if res.Rows[i][0].Int() != want {
			t.Errorf("row %d id = %v", i, res.Rows[i][0])
		}
	}
}

func TestLexEqualLangFilter(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	res, err := e.Exec(`SELECT id FROM book WHERE author LEXEQUAL 'Nehru' THRESHOLD 2 IN english`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Errorf("lang-filtered Ψ: %v", res.Rows)
	}
}

func TestLexEqualSessionThreshold(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	// Default threshold is 2; Gandhi vs காந்தி ("kandi") is distance 2.
	e.MustExec(`SET lexequal_threshold = 0`)
	res := e.MustExec(`SELECT id FROM book WHERE author LEXEQUAL 'Gandhi'`)
	if len(res.Rows) != 1 {
		t.Fatalf("k=0 matches = %d %v", len(res.Rows), res.Rows)
	}
	e.MustExec(`SET lexequal_threshold = 2`)
	res = e.MustExec(`SELECT id FROM book WHERE author LEXEQUAL 'Gandhi'`)
	if len(res.Rows) != 2 {
		t.Fatalf("k=2 matches = %d %v", len(res.Rows), res.Rows)
	}
	if v := e.MustExec(`SHOW lexequal_threshold`); len(v.Rows) != 1 || v.Rows[0][0].Text() != "2" {
		t.Error("SHOW lexequal_threshold")
	}
}

func TestCountStar(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	res := e.MustExec(`SELECT count(*) FROM book`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 6 {
		t.Fatalf("count(*) = %v", res.Rows)
	}
	res = e.MustExec(`SELECT count(*) FROM book WHERE price > 100`)
	if res.Rows[0][0].Int() != 0 {
		t.Error("count over empty selection must be 0")
	}
}

func TestAggregates(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	res := e.MustExec(`SELECT sum(price), avg(price), min(price), max(price), count(price) FROM book`)
	row := res.Rows[0]
	if row[0].Float() != 62.0 {
		t.Errorf("sum = %v", row[0])
	}
	if row[2].Float() != 7.5 || row[3].Float() != 15.0 {
		t.Errorf("min/max = %v %v", row[2], row[3])
	}
	if row[4].Int() != 6 {
		t.Errorf("count(col) = %v", row[4])
	}
}

func TestGroupBy(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	res := e.MustExec(`SELECT lang(author), count(*) FROM book GROUP BY lang(author) ORDER BY count(*) DESC, lang(author)`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].Text() != "english" || res.Rows[0][1].Int() != 3 {
		t.Errorf("top group = %v", res.Rows[0])
	}
}

func TestDistinctAndLimit(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	res := e.MustExec(`SELECT DISTINCT lang(author) FROM book`)
	if len(res.Rows) != 3 {
		t.Errorf("distinct langs = %d", len(res.Rows))
	}
	res = e.MustExec(`SELECT id FROM book ORDER BY id LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[1][0].Int() != 2 {
		t.Errorf("limit: %v", res.Rows)
	}
}

func TestProjectionFunctions(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	res := e.MustExec(`SELECT text(author), lang(author), phoneme(author) FROM book WHERE id = 2`)
	row := res.Rows[0]
	if row[0].Text() != "नेहरू" || row[1].Text() != "hindi" || row[2].Text() == "" {
		t.Errorf("⊖ projections: %v", row)
	}
}

func TestBTreeIndexScan(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE nums (id INT, val TEXT)`)
	var vals []string
	for i := 0; i < 3000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 'v%04d')", i, i))
	}
	e.MustExec(`INSERT INTO nums VALUES ` + strings.Join(vals, ","))
	e.MustExec(`CREATE INDEX idx_id ON nums (id) USING BTREE`)
	e.MustExec(`ANALYZE nums`)

	res := e.MustExec(`SELECT val FROM nums WHERE id = 42`)
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "v0042" {
		t.Fatalf("eq scan: %v", res.Rows)
	}
	if !strings.Contains(res.Plan, "IndexScan(BTree)") {
		t.Errorf("expected index scan after ANALYZE:\n%s", res.Plan)
	}
	res = e.MustExec(`SELECT count(*) FROM nums WHERE id < 10`)
	if res.Rows[0][0].Int() != 10 {
		t.Errorf("range scan count = %v", res.Rows[0][0])
	}
	res = e.MustExec(`SELECT count(*) FROM nums WHERE id >= 2990`)
	if res.Rows[0][0].Int() != 10 {
		t.Errorf("open range count = %v", res.Rows[0][0])
	}
}

// Before ANALYZE, an equality on a B-tree-indexed column is a point read
// through the index, as it is after: the planner's assumed size for a table
// it has not measured must not price the probe above a parallel scan. The
// guess takes every B-tree column for a key, so an equality on grp (16
// values) also probes the index until ANALYZE measures it.
func TestUnanalyzedPointReadUsesBTree(t *testing.T) {
	e, err := Open(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE t (id INT, grp INT, name TEXT)`)
	for i := 0; i < 10000; i += 500 {
		var vals []string
		for j := i; j < i+500; j++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, 'n%05d')", j, j%16, j))
		}
		e.MustExec(`INSERT INTO t VALUES ` + strings.Join(vals, ","))
	}
	e.MustExec(`CREATE INDEX t_id ON t (id) USING BTREE`)
	e.MustExec(`CREATE INDEX t_grp ON t (grp) USING BTREE`)
	for _, when := range []string{"before ANALYZE", "after ANALYZE"} {
		res := e.MustExec(`SELECT name FROM t WHERE id = 77`)
		if !strings.Contains(res.Plan, "IndexScan(BTree) t using t_id key=77") || len(res.Rows) != 1 || res.Rows[0][0].Text() != "n00077" {
			t.Errorf("%s: %v from\n%s", when, res.Rows, res.Plan)
		}
		res = e.MustExec(`SELECT count(*) FROM t WHERE grp = 5`)
		if strings.Contains(res.Plan, "IndexScan(BTree) t using t_grp key=5") != (when == "before ANALYZE") || res.Rows[0][0].Int() != 625 {
			t.Errorf("%s: %v from\n%s", when, res.Rows, res.Plan)
		}
		e.MustExec(`ANALYZE t`)
	}
}

func TestPsiJoin(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE author (aid INT, aname UNITEXT)`)
	e.MustExec(`CREATE TABLE publisher (pid INT, pname UNITEXT)`)
	e.MustExec(`INSERT INTO author VALUES
		(1, unitext('Nehru', english)),
		(2, unitext('Gandhi', english)),
		(3, unitext('Tagore', english))`)
	e.MustExec(`INSERT INTO publisher VALUES
		(1, unitext('நேரு', tamil)),
		(2, unitext('Penguin', english))`)
	res := e.MustExec(`SELECT aid, pid FROM author a, publisher p
		WHERE a.aname LEXEQUAL p.pname THRESHOLD 2`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 || res.Rows[0][1].Int() != 1 {
		t.Fatalf("Ψ join: %v\nplan:\n%s", res.Rows, res.Plan)
	}
}

func TestSemEqualScanFigure4(t *testing.T) {
	net := wordnet.Generate(wordnet.Config{Synsets: 3000, Seed: 1,
		Langs: []LangID{LangEnglish, LangFrench, LangTamil}})
	e, err := Open(Config{WordNet: net})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE book (id INT, title TEXT, category UNITEXT)`)
	e.MustExec(`INSERT INTO book VALUES
		(1, 'A', unitext('history', english)),
		(2, 'B', unitext('historiography', english)),
		(3, 'C', unitext('french:autobiography', french)),
		(4, 'D', unitext('tamil:chronicle', tamil)),
		(5, 'E', unitext('physics', english)),
		(6, 'F', unitext('german-thing', german))`)
	res := e.MustExec(`SELECT id FROM book
		WHERE category SEMEQUAL 'History' IN english, french, tamil ORDER BY id`)
	if len(res.Rows) != 4 {
		t.Fatalf("Ω matches = %d: %v", len(res.Rows), res.Rows)
	}
	for i, want := range []int64{1, 2, 3, 4} {
		if res.Rows[i][0].Int() != want {
			t.Errorf("row %d = %v", i, res.Rows[i])
		}
	}
	// Language filter drops French.
	res = e.MustExec(`SELECT count(*) FROM book WHERE category SEMEQUAL 'History' IN english, tamil`)
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("filtered Ω count = %v", res.Rows[0][0])
	}
}

func TestSemEqualWithoutTaxonomyFails(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE b (c UNITEXT)`)
	e.MustExec(`INSERT INTO b VALUES (unitext('x', english))`)
	if _, err := e.Exec(`SELECT * FROM b WHERE c SEMEQUAL 'History'`); err == nil {
		t.Error("SEMEQUAL without taxonomy must error")
	}
}

func TestOmegaJoin(t *testing.T) {
	net := wordnet.Generate(wordnet.Config{Synsets: 3000, Seed: 1})
	e, err := Open(Config{WordNet: net})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE item (iid INT, cat UNITEXT)`)
	e.MustExec(`CREATE TABLE concept (cid INT, name UNITEXT)`)
	e.MustExec(`INSERT INTO item VALUES
		(1, unitext('historiography', english)),
		(2, unitext('physics', english)),
		(3, unitext('music', english))`)
	e.MustExec(`INSERT INTO concept VALUES
		(10, unitext('history', english)),
		(20, unitext('art', english))`)
	res := e.MustExec(`SELECT iid, cid FROM item i, concept c
		WHERE i.cat SEMEQUAL c.name ORDER BY iid`)
	if len(res.Rows) != 2 {
		t.Fatalf("Ω join rows: %v\nplan:\n%s", res.Rows, res.Plan)
	}
	if res.Rows[0][0].Int() != 1 || res.Rows[0][1].Int() != 10 {
		t.Errorf("row 0 = %v", res.Rows[0])
	}
	if res.Rows[1][0].Int() != 3 || res.Rows[1][1].Int() != 20 {
		t.Errorf("row 1 = %v", res.Rows[1])
	}
}

func TestHashJoinAndThreeWay(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE a (id INT, x TEXT)`)
	e.MustExec(`CREATE TABLE b (id INT, aid INT, y TEXT)`)
	e.MustExec(`CREATE TABLE c (id INT, bid INT)`)
	e.MustExec(`INSERT INTO a VALUES (1,'a1'), (2,'a2'), (3,'a3')`)
	e.MustExec(`INSERT INTO b VALUES (10,1,'b1'), (11,1,'b2'), (12,2,'b3')`)
	e.MustExec(`INSERT INTO c VALUES (100,10), (101,12), (102,99)`)
	res := e.MustExec(`SELECT a.x, b.y, c.id FROM a
		JOIN b ON a.id = b.aid
		JOIN c ON b.id = c.bid
		ORDER BY c.id`)
	if len(res.Rows) != 2 {
		t.Fatalf("3-way join rows: %v\nplan:\n%s", res.Rows, res.Plan)
	}
	if res.Rows[0][0].Text() != "a1" || res.Rows[1][0].Text() != "a2" {
		t.Errorf("rows: %v", res.Rows)
	}
}

func TestExplain(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	res := e.MustExec(`EXPLAIN SELECT count(*) FROM book WHERE author LEXEQUAL 'Nehru' THRESHOLD 2`)
	if !strings.Contains(res.Plan, "SeqScan") || !strings.Contains(res.Plan, "Ψ") {
		t.Errorf("EXPLAIN output:\n%s", res.Plan)
	}
	if res.PlanCost <= 0 {
		t.Error("plan cost must be positive")
	}
	res = e.MustExec(`EXPLAIN ANALYZE SELECT count(*) FROM book`)
	if !strings.Contains(res.Plan, "Actual:") {
		t.Errorf("EXPLAIN ANALYZE output:\n%s", res.Plan)
	}
}

func TestForceJoinOrder(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE big (id INT, v TEXT)`)
	e.MustExec(`CREATE TABLE small (id INT, bigid INT)`)
	var vals []string
	for i := 0; i < 300; i++ {
		vals = append(vals, fmt.Sprintf("(%d,'v%d')", i, i))
	}
	e.MustExec(`INSERT INTO big VALUES ` + strings.Join(vals, ","))
	e.MustExec(`INSERT INTO small VALUES (1, 5), (2, 7)`)
	e.MustExec(`ANALYZE`)
	e.MustExec(`SET force_join_order = big, small`)
	res := e.MustExec(`SELECT big.v FROM small JOIN big ON small.bigid = big.id ORDER BY big.v`)
	if len(res.Rows) != 2 {
		t.Fatalf("forced-order join rows: %v", res.Rows)
	}
	// The first scanned table must be "big" (left-most leaf).
	planLines := strings.Split(res.Plan, "\n")
	firstScan := ""
	for _, l := range planLines {
		if strings.Contains(l, "Scan") {
			firstScan = l
			break
		}
	}
	if !strings.Contains(firstScan, "big") {
		t.Errorf("force_join_order ignored; first scan: %q\nplan:\n%s", firstScan, res.Plan)
	}
	e.MustExec(`SET force_join_order = ''`)
}

func TestInsertErrors(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE t (a INT, b TEXT)`)
	if _, err := e.Exec(`INSERT INTO t VALUES (1)`); err == nil {
		t.Error("wrong arity must fail")
	}
	if _, err := e.Exec(`INSERT INTO t VALUES ('str', 'b')`); err == nil {
		t.Error("type mismatch must fail")
	}
	if _, err := e.Exec(`INSERT INTO ghost VALUES (1)`); err == nil {
		t.Error("missing table must fail")
	}
}

func TestTextToUniTextCoercion(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE t (u UNITEXT)`)
	e.MustExec(`INSERT INTO t VALUES ('plain text name')`)
	res := e.MustExec(`SELECT lang(u), phoneme(u) FROM t`)
	if res.Rows[0][0].Text() != "english" {
		t.Errorf("coerced lang = %v", res.Rows[0][0])
	}
	if res.Rows[0][1].Text() == "" {
		t.Error("phoneme must be materialized at insert (§3.1)")
	}
}

func TestDDLErrors(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE t (a INT)`)
	if _, err := e.Exec(`CREATE TABLE t (b INT)`); err == nil {
		t.Error("duplicate table")
	}
	if _, err := e.Exec(`CREATE INDEX i ON t (ghost)`); err == nil {
		t.Error("index on missing column")
	}
	if _, err := e.Exec(`CREATE INDEX i ON t (a) USING MTREE`); err == nil {
		t.Error("MTREE on INT column must fail")
	}
	if _, err := e.Exec(`DROP TABLE ghost`); err == nil {
		t.Error("drop missing table")
	}
	e.MustExec(`DROP TABLE t`)
	if _, err := e.Exec(`SELECT * FROM t`); err == nil {
		t.Error("query after drop must fail")
	}
}

func TestPersistentEngine(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec(`CREATE TABLE t (id INT, name UNITEXT)`)
	e.MustExec(`INSERT INTO t VALUES (1, unitext('Nehru', english)), (2, unitext('Gandhi', english))`)
	e.MustExec(`CREATE INDEX idx_t ON t (name) USING MTREE`)
	e.MustExec(`ANALYZE`)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	res := e2.MustExec(`SELECT count(*) FROM t WHERE name LEXEQUAL 'Nehru' THRESHOLD 1`)
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("reopened query: %v\nplan:\n%s", res.Rows, res.Plan)
	}
}

func TestQueryStreaming(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	rows, err := e.Query(`SELECT id FROM book ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	count := 0
	for {
		_, ok, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != 6 {
		t.Errorf("streamed %d rows", count)
	}
	// A statement without rows comes back finished: no columns, the count set.
	ins, err := e.Query(`INSERT INTO book VALUES (9, unitext('x', english), 'y', 1.0)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ins.Next(); ok || err != nil || len(ins.Cols) != 0 || ins.RowsAffected != 1 {
		t.Errorf("Query(INSERT): cols=%v affected=%d next=%v/%v, want none/1/false/nil", ins.Cols, ins.RowsAffected, ok, err)
	}
	if err := ins.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestUniTextEquality(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE t (u UNITEXT)`)
	e.MustExec(`INSERT INTO t VALUES (unitext('x', english)), (unitext('x', tamil))`)
	// Plain = on UNITEXT uses ≐ (both components).
	res := e.MustExec(`SELECT count(*) FROM t WHERE u = unitext('x', tamil)`)
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("≐ equality count = %v", res.Rows[0][0])
	}
	// text() comparison sees both.
	res = e.MustExec(`SELECT count(*) FROM t WHERE text(u) = 'x'`)
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("text() equality count = %v", res.Rows[0][0])
	}
}

func TestOrPredicate(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	res := e.MustExec(`SELECT count(*) FROM book WHERE id = 1 OR id = 4`)
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("OR count = %v", res.Rows[0][0])
	}
	res = e.MustExec(`SELECT count(*) FROM book WHERE NOT (price < 10)`)
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("NOT count = %v", res.Rows[0][0])
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE t (a INT, b TEXT)`)
	e.MustExec(`INSERT INTO t VALUES (2,'x'), (1,'y'), (2,'a'), (1,'a')`)
	res := e.MustExec(`SELECT a, b FROM t ORDER BY a DESC, b ASC`)
	want := [][2]string{{"2", "a"}, {"2", "x"}, {"1", "a"}, {"1", "y"}}
	for i, w := range want {
		if res.Rows[i][0].String() != w[0] || res.Rows[i][1].Text() != w[1] {
			t.Fatalf("row %d = %v, want %v", i, res.Rows[i], w)
		}
	}
}

func TestStatsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec(`CREATE TABLE t (id INT)`)
	var vals []string
	for i := 0; i < 2000; i++ {
		vals = append(vals, fmt.Sprintf("(%d)", i))
	}
	e.MustExec(`INSERT INTO t VALUES ` + strings.Join(vals, ","))
	e.MustExec(`CREATE INDEX i ON t (id) USING BTREE`)
	e.MustExec(`ANALYZE`)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// Reloaded histograms must still drive the optimizer to the index.
	res := e2.MustExec(`SELECT count(*) FROM t WHERE id = 55`)
	if !strings.Contains(res.Plan, "IndexScan(BTree)") {
		t.Errorf("reloaded stats did not produce an index plan:\n%s", res.Plan)
	}
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestEmptyTableQueries(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE t (id INT, u UNITEXT)`)
	for _, q := range []string{
		`SELECT * FROM t`,
		`SELECT count(*), sum(id) FROM t`,
		`SELECT id FROM t WHERE u LEXEQUAL 'x' THRESHOLD 3`,
		`SELECT id FROM t ORDER BY id LIMIT 5`,
		`SELECT DISTINCT id FROM t`,
	} {
		res, err := e.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		_ = res
	}
	// Aggregates over empty input still yield one row.
	res := e.MustExec(`SELECT count(*), sum(id) FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("empty aggregate = %v", res.Rows)
	}
}
