package mural

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

// TestMutationOutcomesAcrossModes checks that a statement's outcome does
// not depend on whether the database lives in memory or on disk: in both,
// a statement is one pool batch that commits or rolls back whole, and a
// CREATE INDEX on a table larger than the pool builds in pool-bounded
// chunks.
func TestMutationOutcomesAcrossModes(t *testing.T) {
	// poolRows fills more than three 16-frame pools of heap pages, and each
	// index but the q-gram lists more than one pool.
	const poolRows = 6500
	indexKinds := []string{"BTREE", "MTREE", "MDI", "QGRAM"}
	// want is a 4,096-frame engine's index answers over poolRows rows, built
	// by the first mode that needs them: both modes must give them.
	var want string
	cases := []struct {
		name string
		run  func(t *testing.T, open func(frames int) *Engine)
	}{
		{"insert with an oversized row leaves no row", func(t *testing.T, open func(int) *Engine) {
			e := open(4096)
			e.MustExec(`CREATE TABLE t (id INT, note TEXT)`)
			big := strings.Repeat("x", 9000)
			_, err := e.Exec(`INSERT INTO t VALUES (1, 'short'), (2, '` + big + `')`)
			if err == nil || !strings.Contains(err.Error(), "exceeds max") {
				t.Fatalf("INSERT of a %d-byte row = %v, want the record-size error (max %d)", len(big), err, storage.MaxRecordSize(0))
			}
			if n := e.MustExec(`SELECT count(*) FROM t`).Rows[0][0].Int(); n != 0 {
				t.Fatalf("rows after the failed INSERT = %d, want 0", n)
			}
			e.MustExec(`INSERT INTO t VALUES (3, 'next')`)
			if n := e.MustExec(`SELECT count(*) FROM t`).Rows[0][0].Int(); n != 1 {
				t.Fatalf("rows after the next INSERT = %d, want 1", n)
			}
		}},
		{"delete whose index maintenance fails leaves every row", func(t *testing.T, open func(int) *Engine) {
			e := open(4096)
			loadSynthetic(e, 200)
			for _, kind := range indexKinds {
				e.MustExec(nameIndexSQL(kind))
			}
			before := engineState(t, e)
			injected := errors.New("injected index-delete failure")
			e.failIndexDelete = func(index string) error {
				if index == "t_mdi" {
					return injected
				}
				return nil
			}
			if _, err := e.Exec(`DELETE FROM t WHERE id < 100`); !errors.Is(err, injected) {
				t.Fatalf("DELETE with a failing index delete = %v, want the injected error", err)
			}
			e.failIndexDelete = nil
			if got := engineState(t, e); got != before {
				t.Fatalf("state after the failed DELETE:\n%s\nwant:\n%s", got, before)
			}
			if res := e.MustExec(`DELETE FROM t WHERE id < 100`); res.RowsAffected != 100 {
				t.Fatalf("retried DELETE affected %d rows, want 100", res.RowsAffected)
			}
		}},
		{"create index on a table larger than the pool", func(t *testing.T, open func(int) *Engine) {
			e := open(16)
			loadSynthetic(e, poolRows)
			if pages, err := e.TablePages("t"); err != nil || pages < 3*16 {
				t.Fatalf("table t has %d pages (err %v), want at least 3 pools of 16 frames", pages, err)
			}
			for _, kind := range indexKinds {
				if _, err := e.Exec(nameIndexSQL(kind)); err != nil {
					t.Errorf("CREATE INDEX USING %s under 16 frames: %v", kind, err)
				}
			}
			if t.Failed() {
				return
			}
			if want == "" {
				big := open(4096)
				loadSynthetic(big, poolRows)
				for _, kind := range indexKinds {
					big.MustExec(nameIndexSQL(kind))
				}
				want = indexAnswers(t, big)
			}
			if got := indexAnswers(t, e); got != want {
				t.Fatalf("index answers under 16 frames:\n%s\nwant (4,096 frames):\n%s", got, want)
			}
		}},
		{"delete larger than the pool fails whole", func(t *testing.T, open func(int) *Engine) {
			e := open(16)
			loadSynthetic(e, poolRows)
			e.MustExec(nameIndexSQL("BTREE"))
			before := indexAnswers(t, e)
			_, err := e.Exec(`DELETE FROM t WHERE id >= 100`)
			if err == nil || !strings.Contains(err.Error(), "buffer pool exhausted") {
				t.Fatalf("DELETE of all but 100 rows under 16 frames = %v, want buffer pool exhausted", err)
			}
			if n := e.MustExec(`SELECT count(*) FROM t`).Rows[0][0].Int(); n != poolRows {
				t.Fatalf("rows after the failed DELETE = %d, want %d", n, poolRows)
			}
			if got := indexAnswers(t, e); got != before {
				t.Fatalf("index answers after the failed DELETE:\n%s\nwant:\n%s", got, before)
			}
		}},
	}
	for _, mode := range []string{"memory", "disk"} {
		for _, tc := range cases {
			t.Run(mode+"/"+tc.name, func(t *testing.T) {
				tc.run(t, func(frames int) *Engine {
					cfg := Config{BufferPages: frames, FeedbackEntries: -1}
					if mode == "disk" {
						cfg.Dir = t.TempDir()
					}
					e, err := Open(cfg)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { _ = e.Close() })
					return e
				})
			})
		}
	}
}

// loadSynthetic fills a new table t (id INT, name UNITEXT, pad TEXT) with n
// synthetic names, 100 rows per INSERT. The padding widens each row, so
// fewer rows fill more heap pages.
func loadSynthetic(e *Engine, n int) {
	e.MustExec(`CREATE TABLE t (id INT, name UNITEXT, pad TEXT)`)
	pad := strings.Repeat("p", 24)
	var rows []string
	for i := 0; i < n; i++ {
		rows = append(rows, fmt.Sprintf("(%d, unitext('%s', english), '%s')", i, syntheticName(i), pad))
		if len(rows) == 100 || i == n-1 {
			e.MustExec(`INSERT INTO t VALUES ` + strings.Join(rows, ","))
			rows = rows[:0]
		}
	}
}

// nameIndexSQL is the CREATE INDEX of index t_<kind>: on t's id for a
// B-tree, on its name for a metric index.
func nameIndexSQL(kind string) string {
	col := "name"
	if kind == "BTREE" {
		col = "id"
	}
	return fmt.Sprintf(`CREATE INDEX t_%s ON t (%s) USING %s`, strings.ToLower(kind), col, kind)
}

// indexAnswers renders every index's entries and a few of its scans: a
// B-tree's key ranges, a metric index's threshold-2 searches for names of t.
func indexAnswers(t *testing.T, e *Engine) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(indexState(t, e))
	for _, ix := range e.Catalog().Indexes() {
		for _, i := range []int{0, 77, 1234, 6499} {
			var rids []storage.RID
			var err error
			if ix.Column == "id" {
				rids, _, err = e.IndexSearch(ix.Name, types.KeyOf(types.NewInt(int64(i))), types.KeyOf(types.NewInt(int64(i+50))))
			} else {
				ph := e.phon.ToPhoneme(types.Compose(syntheticName(i), types.LangEnglish))
				rids, _, err = e.MetricSearch(ix.Name, ph, 2)
			}
			if err != nil {
				t.Fatalf("index %s: %v", ix.Name, err)
			}
			fmt.Fprintf(&b, "%s probe %d: %d rids\n", ix.Name, i, len(rids))
		}
	}
	return b.String()
}
