package mural

import (
	"context"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/mural-db/mural/internal/storage"
)

// TestQGramIndexOwnsNoDataFile: a q-gram index lives in memory, so creating
// and dropping one — by DROP INDEX or with its table — must neither create
// a data file nor attach one, and the next Open must find no orphan to
// delete.
func TestQGramIndexOwnsNoDataFile(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	files := func() []string {
		t.Helper()
		m, err := filepath.Glob(filepath.Join(dir, "file_*.db"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tbl := range []string{"t", "u"} {
		e.MustExec(`CREATE TABLE ` + tbl + ` (id INT, name UNITEXT)`)
		e.MustExec(`INSERT INTO ` + tbl + ` VALUES (1, unitext('nehru', english)), (2, unitext('bose', english))`)
	}
	heaps, disks := files(), len(e.disks)

	e.MustExec(`CREATE INDEX q1 ON t (name) USING QGRAM`)
	e.MustExec(`DROP INDEX q1`)
	e.MustExec(`CREATE INDEX q2 ON t (name) USING QGRAM`)
	e.MustExec(`CREATE INDEX q3 ON u (name) USING QGRAM`)
	if got := files(); !reflect.DeepEqual(got, heaps) {
		t.Errorf("data files after q-gram CREATE/DROP INDEX = %v, want the heaps' %v", got, heaps)
	}
	if len(e.disks) != disks {
		t.Errorf("attached disks after q-gram CREATE/DROP INDEX = %d, want %d", len(e.disks), disks)
	}

	uHeap, _ := e.Catalog().TableByName("u")
	e.MustExec(`DROP TABLE u`)
	want := []string{}
	for _, f := range heaps {
		if f != dataFilePath(dir, uHeap.File) {
			want = append(want, f)
		}
	}
	if got := files(); !reflect.DeepEqual(got, want) {
		t.Errorf("data files after DROP TABLE u = %v, want %v", got, want)
	}
	if len(e.disks) != disks-1 {
		t.Errorf("attached disks after DROP TABLE u = %d, want %d", len(e.disks), disks-1)
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if n := e.LastRecovery().OrphansRemoved; n != 0 {
		t.Errorf("reopen removed %d orphan files, want 0", n)
	}
	if got := files(); !reflect.DeepEqual(got, want) {
		t.Errorf("data files after reopen = %v, want %v", got, want)
	}
}

// TestIndexKindsSurviveRollbackAndReopen runs every index kind through an
// INSERT and a DELETE whose commits fail, then through a clean reopen. Each
// failed commit reloads the table's index handles from the rolled-back
// pages (a q-gram index from the heap), and the reopen loads them again, so
// after each step the answer through every forced index must equal the
// sequential scan's.
func TestIndexKindsSurviveRollbackAndReopen(t *testing.T) {
	var fail atomic.Bool
	cfg := Config{
		Dir: t.TempDir(),
		WALWrap: func(f storage.LogFile) storage.LogFile {
			return &failSyncLog{LogFile: f, fail: &fail}
		},
	}
	e := openIndexedEngine(t, cfg)
	// With statistics, a bare literal at threshold 0 prices every metric
	// index below the sequential scan when it is the only one enabled.
	e.MustExec(`ANALYZE names`)
	probe := syntheticName(3)
	psi := `SELECT id FROM names WHERE name LEXEQUAL '` + probe + `' THRESHOLD 0`
	paths := []struct{ enable, query, op string }{
		{"enable_indexscan", `SELECT id FROM names WHERE id = 3`, "IndexScan(BTree)"},
		{"enable_mtree", psi, "IndexScan(MTree)"},
		{"enable_mdi", psi, "IndexScan(MDI)"},
		{"enable_qgram", psi, "IndexScan(QGram)"},
	}
	// answer runs q on a session with only the named access path enabled
	// (none for ""), and returns the ids it found, sorted, and its plan.
	answer := func(e *Engine, enable, q string) ([]int64, string) {
		t.Helper()
		ctx := context.Background()
		s := e.Session()
		for _, p := range paths {
			v := "off"
			if p.enable == enable {
				v = "on"
			}
			if _, err := s.ExecContext(ctx, `SET `+p.enable+` = `+v); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.ExecContext(ctx, q)
		if err != nil {
			t.Fatalf("%s with only %q: %v", q, enable, err)
		}
		ids := make([]int64, len(res.Rows))
		for i, r := range res.Rows {
			ids[i] = r[0].Int()
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids, res.Plan
	}
	check := func(e *Engine, when string) {
		t.Helper()
		for _, p := range paths {
			want, _ := answer(e, "", p.query)
			if !reflect.DeepEqual(want, []int64{3}) {
				t.Errorf("%s: seq scan of %q = %v, want [3]", when, p.query, want)
			}
			got, plan := answer(e, p.enable, p.query)
			if !strings.Contains(plan, p.op) {
				t.Errorf("%s: plan with only %s does not use %s:\n%s", when, p.enable, p.op, plan)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s answers %v, seq scan %v", when, p.op, got, want)
			}
		}
	}

	fail.Store(true)
	if _, err := e.Exec(`INSERT INTO names VALUES (0, unitext('` + probe + `', english))`); err == nil {
		t.Fatal("INSERT with a failing commit must error")
	}
	if _, err := e.Exec(`DELETE FROM names WHERE id = 3`); err == nil {
		t.Fatal("DELETE with a failing commit must error")
	}
	fail.Store(false)
	check(e, "after rollback")

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e2.Close() }()
	check(e2, "after reopen")
}
