package mural

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestDifferentialAccessPaths is the randomized cross-check: the same query
// executed through maximally different physical plans (every index and join
// algorithm enabled vs everything disabled) must return identical result
// multisets. The two plans come from two sessions of one engine that differ
// only in SET, and share no code above the heap scan, so agreement across
// hundreds of random predicates is strong evidence that the index, join and
// recheck machinery is sound.
func TestDifferentialAccessPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(20060705))

	fast := memEngine(t)
	fast.MustExec(`CREATE TABLE t (id INT, grp INT, val FLOAT, name UNITEXT)`)
	fast.MustExec(`CREATE TABLE s (sid INT, ref INT, sname UNITEXT)`)
	names := []string{"nehru", "neru", "gandhi", "gandi", "patel", "menon", "bose", "varma", "sharma", "reddy"}
	langs := []string{"english", "hindi", "tamil", "kannada"}
	local := rand.New(rand.NewSource(77))
	var rows []string
	for i := 0; i < 800; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d, %d.%d, unitext('%s', %s))",
			i, local.Intn(20), local.Intn(50), local.Intn(10),
			names[local.Intn(len(names))], langs[local.Intn(len(langs))]))
	}
	fast.MustExec(`INSERT INTO t VALUES ` + strings.Join(rows, ","))
	rows = rows[:0]
	for i := 0; i < 120; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d, unitext('%s', english))",
			i, local.Intn(800), names[local.Intn(len(names))]))
	}
	fast.MustExec(`INSERT INTO s VALUES ` + strings.Join(rows, ","))
	fast.MustExec(`CREATE INDEX dt_id ON t (id) USING BTREE`)
	fast.MustExec(`CREATE INDEX dt_grp ON t (grp) USING BTREE`)
	fast.MustExec(`CREATE INDEX dt_name_mt ON t (name) USING MTREE`)
	fast.MustExec(`CREATE INDEX dt_name_md ON t (name) USING MDI`)
	fast.MustExec(`ANALYZE`)

	slow := fast.Session()
	for _, set := range []string{"enable_hashjoin", "enable_indexscan", "enable_mtree", "enable_mdi"} {
		if _, err := slow.ExecContext(context.Background(), `SET `+set+` = off`); err != nil {
			t.Fatal(err)
		}
	}

	// Random predicate grammar over table t (and joins with s).
	randPred := func(depth int) string {
		var gen func(d int) string
		names := []string{"nehru", "gandi", "patel", "xyz"}
		gen = func(d int) string {
			if d <= 0 || rng.Intn(3) == 0 {
				switch rng.Intn(6) {
				case 0:
					return fmt.Sprintf("id %s %d", []string{"=", "<", ">", "<=", ">=", "<>"}[rng.Intn(6)], rng.Intn(900))
				case 1:
					return fmt.Sprintf("grp = %d", rng.Intn(25))
				case 2:
					return fmt.Sprintf("val < %d.5", rng.Intn(55))
				case 3:
					return fmt.Sprintf("name LEXEQUAL '%s' THRESHOLD %d", names[rng.Intn(len(names))], rng.Intn(4))
				case 4:
					return fmt.Sprintf("name LEXEQUAL '%s' THRESHOLD %d IN english, tamil", names[rng.Intn(len(names))], rng.Intn(3))
				default:
					return fmt.Sprintf("text(name) LIKE '%s%%'", "ne"[:1+rng.Intn(1)])
				}
			}
			op := []string{"AND", "OR"}[rng.Intn(2)]
			inner := fmt.Sprintf("(%s %s %s)", gen(d-1), op, gen(d-1))
			if rng.Intn(4) == 0 {
				return "NOT " + inner
			}
			return inner
		}
		return gen(depth)
	}

	normalize := func(res *Result) []string {
		out := make([]string, 0, len(res.Rows))
		for _, row := range res.Rows {
			out = append(out, row.String())
		}
		sort.Strings(out)
		return out
	}

	fastPaths := false // the fast session took an index or a hash join at least once
	runBoth := func(q string) {
		t.Helper()
		fr, err := fast.Exec(q)
		if err != nil {
			t.Fatalf("fast %q: %v", q, err)
		}
		sr, err := slow.ExecContext(context.Background(), q)
		if err != nil {
			t.Fatalf("slow %q: %v", q, err)
		}
		if strings.Contains(sr.Plan, "IndexScan") || strings.Contains(sr.Plan, "HashJoin") || strings.Contains(sr.Plan, "PsiJoin(MTree)") {
			t.Fatalf("slow session planned a disabled path for %q:\n%s", q, sr.Plan)
		}
		fastPaths = fastPaths || strings.Contains(fr.Plan, "IndexScan") || strings.Contains(fr.Plan, "HashJoin")
		f, s := normalize(fr), normalize(sr)
		if len(f) != len(s) {
			t.Fatalf("row count differs for %q: fast=%d slow=%d\nfast plan:\n%s\nslow plan:\n%s",
				q, len(f), len(s), fr.Plan, sr.Plan)
		}
		for i := range f {
			if f[i] != s[i] {
				t.Fatalf("row %d differs for %q:\nfast: %s\nslow: %s", i, q, f[i], s[i])
			}
		}
	}

	// Single-table scans.
	for i := 0; i < 120; i++ {
		runBoth(fmt.Sprintf(`SELECT id, grp, text(name) FROM t WHERE %s`, randPred(2)))
	}
	// Aggregates.
	for i := 0; i < 30; i++ {
		runBoth(fmt.Sprintf(`SELECT count(*), sum(val) FROM t WHERE %s`, randPred(2)))
	}
	// Equi-joins with random residuals.
	for i := 0; i < 30; i++ {
		runBoth(fmt.Sprintf(
			`SELECT t.id, s.sid FROM t JOIN s ON t.id = s.ref WHERE %s`, randPred(1)))
	}
	// Ψ joins.
	for i := 0; i < 15; i++ {
		runBoth(fmt.Sprintf(
			`SELECT count(*) FROM s, t WHERE s.sname LEXEQUAL t.name THRESHOLD %d`, rng.Intn(3)))
	}
	if !fastPaths {
		t.Fatal("the fast session never used an index or a hash join: the two sessions planned alike")
	}
}

// TestDifferentialOrderByStability verifies ORDER BY + LIMIT is stable
// across plan shapes (sorted prefix must match exactly).
func TestDifferentialOrderByStability(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE t (id INT, v INT)`)
	var rows []string
	local := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d)", i, local.Intn(100)))
	}
	e.MustExec(`INSERT INTO t VALUES ` + strings.Join(rows, ","))
	e.MustExec(`CREATE INDEX dv ON t (v) USING BTREE`)
	e.MustExec(`ANALYZE`)

	full := e.MustExec(`SELECT id FROM t WHERE v = 50 ORDER BY id`)
	lim := e.MustExec(`SELECT id FROM t WHERE v = 50 ORDER BY id LIMIT 3`)
	if len(lim.Rows) > 3 {
		t.Fatalf("limit ignored: %d rows", len(lim.Rows))
	}
	for i := range lim.Rows {
		if lim.Rows[i][0].Int() != full.Rows[i][0].Int() {
			t.Errorf("limit prefix differs at %d", i)
		}
	}
}
