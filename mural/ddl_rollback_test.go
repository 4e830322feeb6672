package mural

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/storage"
)

var errInjectedSync = errors.New("injected sync failure")

// failSyncLog makes WAL syncs fail on demand, so a commit can be forced to
// fail after the statement's in-memory changes were already applied.
type failSyncLog struct {
	storage.LogFile
	fail *atomic.Bool
}

func (f *failSyncLog) Sync() error {
	if f.fail.Load() {
		return errInjectedSync
	}
	return f.LogFile.Sync()
}

// TestFailedCommitLeavesNoTrace runs every statement kind into a failing WAL
// sync. The statement must return the sync error and leave the catalog, the
// rows, every index's entries and the EXPLAIN estimates as they were; the
// next statement on the same engine must commit (the log's append gate is
// open again), and a reopen must recover exactly what the engine held.
func TestFailedCommitLeavesNoTrace(t *testing.T) {
	setup := []string{
		`CREATE TABLE t (id INT, name UNITEXT)`,
		`INSERT INTO t VALUES (1, unitext('nehru', english)), (2, unitext('gandhi', english)), (3, unitext('bose', english))`,
		`CREATE INDEX t_id ON t (id) USING BTREE`,
		`CREATE INDEX t_mdi ON t (name) USING MDI`,
		`ANALYZE t`,
		// A fourth row after ANALYZE, so analyzing t again moves its estimate.
		`INSERT INTO t VALUES (4, unitext('patel', english))`,
		`CREATE TABLE u (id INT)`, // never analyzed
		`INSERT INTO u VALUES (1), (2)`,
	}
	cases := []struct{ name, stmt string }{
		{"create table", `CREATE TABLE v (id INT)`},
		{"create btree index", `CREATE INDEX u_id ON u (id) USING BTREE`},
		{"create mtree index", `CREATE INDEX t_mt ON t (name) USING MTREE`},
		{"create qgram index", `CREATE INDEX t_qg ON t (name) USING QGRAM`},
		{"drop table", `DROP TABLE t`},
		{"drop index", `DROP INDEX t_mdi`},
		{"analyze", `ANALYZE`},
		{"insert", `INSERT INTO t VALUES (5, unitext('azad', english))`},
		{"delete", `DELETE FROM t WHERE id = 2`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fail atomic.Bool
			cfg := Config{
				Dir:             t.TempDir(),
				FeedbackEntries: -1, // EXPLAIN depends on the data and statistics only
				WALWrap: func(f storage.LogFile) storage.LogFile {
					return &failSyncLog{LogFile: f, fail: &fail}
				},
			}
			e, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = e.Close() }()
			for _, q := range setup {
				e.MustExec(q)
			}
			before := engineState(t, e)

			fail.Store(true)
			_, err = e.Exec(tc.stmt)
			fail.Store(false)
			if !errors.Is(err, errInjectedSync) {
				t.Fatalf("%s = %v, want the sync error", tc.stmt, err)
			}
			if got := engineState(t, e); got != before {
				t.Fatalf("state after the failed %s:\n%s\nwant:\n%s", tc.stmt, got, before)
			}
			if _, err := e.Exec(`INSERT INTO u VALUES (3)`); err != nil {
				t.Fatalf("next statement after the failed commit: %v", err)
			}
			want := engineState(t, e)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if e, err = Open(cfg); err != nil {
				t.Fatal(err)
			}
			if got := engineState(t, e); got != want {
				t.Errorf("state after reopen:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// engineState renders what a statement can change: each table's columns,
// row count and EXPLAIN estimate, and each index's entries.
func engineState(t *testing.T, e *Engine) string {
	t.Helper()
	var b strings.Builder
	for _, tb := range e.Catalog().Tables() {
		n := e.MustExec(`SELECT count(*) FROM ` + tb.Name).Rows[0][0].Int()
		plan := e.MustExec(`EXPLAIN SELECT * FROM ` + tb.Name).Plan
		fmt.Fprintf(&b, "table %s %v: %d rows\n%s", tb.Name, tb.Columns, n, plan)
	}
	return b.String() + indexState(t, e)
}

// indexState renders each index's entries, as RIDs in page order.
func indexState(t *testing.T, e *Engine) string {
	t.Helper()
	var b strings.Builder
	for _, ix := range e.Catalog().Indexes() {
		var rids []storage.RID
		var err error
		if ix.Kind == sql.IndexBTree {
			rids, _, err = e.IndexSearch(ix.Name, nil, nil)
		} else {
			rids, _, err = e.MetricSearch(ix.Name, "", 64) // every entry is within 64 edits of ""
		}
		if err != nil {
			t.Fatalf("index %s: %v", ix.Name, err)
		}
		sort.Slice(rids, func(i, j int) bool {
			return rids[i].Page < rids[j].Page || rids[i].Page == rids[j].Page && rids[i].Slot < rids[j].Slot
		})
		fmt.Fprintf(&b, "index %s on %s(%s) %s: %v\n", ix.Name, ix.Table, ix.Column, ix.Kind, rids)
	}
	return b.String()
}
