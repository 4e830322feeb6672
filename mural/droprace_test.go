package mural

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mural-db/mural/internal/storage"
)

// newIndexedEngine builds an engine with a names table carrying every index
// kind, for the DROP-vs-search race tests.
func newIndexedEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	return openIndexedEngine(t, Config{Dir: dir})
}

// openIndexedEngine is newIndexedEngine under any configuration.
func openIndexedEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	mustExec := func(q string) {
		t.Helper()
		if _, err := e.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec(`CREATE TABLE names (id INT, name UNITEXT)`)
	var rows []string
	for i := 0; i < 1000; i++ {
		rows = append(rows, fmt.Sprintf("(%d, unitext(%s, english))", i, "'"+syntheticName(i)+"'"))
		if len(rows) == 500 {
			mustExec(`INSERT INTO names VALUES ` + strings.Join(rows, ","))
			rows = rows[:0]
		}
	}
	if len(rows) > 0 {
		mustExec(`INSERT INTO names VALUES ` + strings.Join(rows, ","))
	}
	mustExec(`CREATE INDEX ix_bt ON names (id) USING BTREE`)
	mustExec(`CREATE INDEX ix_mt ON names (name) USING MTREE`)
	mustExec(`CREATE INDEX ix_md ON names (name) USING MDI`)
	mustExec(`CREATE INDEX ix_qg ON names (name) USING QGRAM`)
	return e
}

// syntheticName derives a varied alphabetic name from an id (digits would be
// stripped by the G2P converter, collapsing every phoneme to one key).
func syntheticName(i int) string {
	const syl = "banemirosatulokipedagu"
	var b strings.Builder
	for n := i + 7; n > 0; n /= 11 {
		k := (n % 11) * 2
		b.WriteString(syl[k : k+2])
	}
	return b.String()
}

// searchAllowedErr reports whether an error is an acceptable outcome for a
// search racing a DROP: "no such index" (the drop won the lookup) is fine,
// anything else — a storage error from a detached file, a lint panic —
// is the race the pinSet closes.
func searchAllowedErr(err error) bool {
	return err == nil || strings.Contains(err.Error(), "no such")
}

// TestDropIndexSearchRace hammers every Env search path while the indexes
// are dropped concurrently. Before the pinSet fix, the handles escaped
// e.mu.RLock and a DROP INDEX could detach the index file mid-probe,
// surfacing as pool/storage errors (or data races under -race). With the
// fix, every probe either completes against the pinned handle or misses the
// handle map cleanly.
func TestDropIndexSearchRace(t *testing.T) {
	e, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	mustExec := func(q string) {
		t.Helper()
		if _, err := e.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	// Long probes widen the race window: many distinct phonemes and a large
	// threshold make each RangeSearch visit most of the tree, so a preempted
	// searcher is almost always mid-probe when the drop detaches the file.
	mustExec(`CREATE TABLE names (id INT, name UNITEXT)`)
	var rows []string
	for i := 0; i < 3000; i++ {
		rows = append(rows, fmt.Sprintf("(%d, unitext('%s', english))", i, syntheticName(i)))
		if len(rows) == 500 {
			mustExec(`INSERT INTO names VALUES ` + strings.Join(rows, ","))
			rows = rows[:0]
		}
	}
	creates := map[string]string{
		"ix_mt": `CREATE INDEX ix_mt ON names (name) USING MTREE`,
		"ix_md": `CREATE INDEX ix_md ON names (name) USING MDI`,
	}
	for _, q := range creates {
		mustExec(q)
	}

	var failures atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	probePh := syntheticName(3)
	searches := []func() error{
		func() error { _, _, err := e.MetricSearch("ix_mt", probePh, 8); return err },
		func() error { _, _, err := e.MetricSearch("ix_md", probePh, 8); return err },
	}
	for _, probe := range searches {
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(probe func() error) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := probe(); !searchAllowedErr(err) {
						if failures.Add(1) == 1 {
							t.Errorf("search racing DROP INDEX failed: %v", err)
						}
						return
					}
				}
			}(probe)
		}
	}
	// Repeated drop/create cycles keep reopening the race window; one drop
	// alone can slip between two probes and prove nothing.
	for cycle := 0; cycle < 3 && failures.Load() == 0; cycle++ {
		for _, ix := range []string{"ix_mt", "ix_md"} {
			if _, err := e.Exec(`DROP INDEX ` + ix); err != nil {
				t.Errorf("DROP INDEX %s: %v", ix, err)
			}
			if _, err := e.Exec(creates[ix]); err != nil {
				t.Errorf("re-create %s: %v", ix, err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestDropTableSearchRace is the same shape against DROP TABLE, which
// releases the heap and every index of the table at once; FetchRIDs pins
// the table name so in-flight point fetches drain first.
func TestDropTableSearchRace(t *testing.T) {
	e := newIndexedEngine(t, "")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := e.MetricSearch("ix_mt", "nm", 2)
				if !searchAllowedErr(err) {
					t.Errorf("search racing DROP TABLE failed: %v", err)
					return
				}
			}
		}()
	}
	if _, err := e.Exec(`DROP TABLE names`); err != nil {
		t.Errorf("DROP TABLE: %v", err)
	}
	close(stop)
	wg.Wait()
}

// TestDropIndexBasic covers the new statement itself: the index disappears
// from the catalog, its file is released, and a repeat drop fails cleanly.
func TestDropIndexBasic(t *testing.T) {
	e := newIndexedEngine(t, t.TempDir())
	const psi = `SELECT count(*) FROM names WHERE name LEXEQUAL unitext('Name1', english) THRESHOLD 0`
	before, err := e.Exec(psi)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(`DROP INDEX ix_mt`); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Catalog().IndexByName("ix_mt"); ok {
		t.Error("ix_mt still in catalog after DROP INDEX")
	}
	if _, err := e.Exec(`DROP INDEX ix_mt`); err == nil {
		t.Error("second DROP INDEX ix_mt must fail")
	}
	// The planner must stop choosing the dropped index but answers stay
	// identical via the remaining paths.
	res, err := e.Exec(psi)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rows[0][0].Int(), before.Rows[0][0].Int(); got != want {
		t.Errorf("count after drop = %d, want %d", got, want)
	}
	// Q-gram indexes have no backing file; their drop path must not touch
	// the disk map.
	if _, err := e.Exec(`DROP INDEX ix_qg`); err != nil {
		t.Fatal(err)
	}
}

// TestDropIndexSurvivesRestart asserts the drop is durable: after reopening
// from the WAL + catalog, the index is gone and queries still run.
func TestDropIndexSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e := newIndexedEngine(t, dir)
	if _, err := e.Exec(`DROP INDEX ix_mt`); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e2.Close() }()
	if _, ok := e2.Catalog().IndexByName("ix_mt"); ok {
		t.Error("ix_mt reappeared after restart")
	}
	res, err := e2.Exec(`SELECT count(*) FROM names`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 1000 {
		t.Errorf("rows after restart = %d, want 1000", n)
	}
}

// TestDropIndexRollsBackOnCommitFailure mirrors the DROP TABLE commit-
// failure test: a failed WAL commit must leave the index intact and usable.
func TestDropIndexRollsBackOnCommitFailure(t *testing.T) {
	var fail atomic.Bool
	e, err := Open(Config{
		Dir: t.TempDir(),
		WALWrap: func(f storage.LogFile) storage.LogFile {
			return &failSyncLog{LogFile: f, fail: &fail}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	mustExec := func(q string) {
		t.Helper()
		if _, err := e.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec(`CREATE TABLE t (id INT)`)
	mustExec(`INSERT INTO t VALUES (1), (2), (3)`)
	mustExec(`CREATE INDEX ix ON t (id) USING BTREE`)

	fail.Store(true)
	if _, err := e.Exec(`DROP INDEX ix`); err == nil {
		t.Fatal("DROP INDEX with failing WAL commit must error")
	}
	fail.Store(false)

	if _, ok := e.Catalog().IndexByName("ix"); !ok {
		t.Error("index vanished although the drop's commit failed")
	}
	if _, _, err := e.IndexSearch("ix", nil, nil); err != nil {
		t.Errorf("index unusable after failed drop: %v", err)
	}
}
