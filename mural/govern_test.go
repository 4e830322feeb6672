package mural

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// loadUniTable fills table t with n UNITEXT rows cycling through similar names,
// so self-joins under Ψ do quadratic edit-distance work.
func loadUniTable(t *testing.T, e *Engine, table string, n int) {
	t.Helper()
	e.MustExec(fmt.Sprintf(`CREATE TABLE %s (id INT, name UNITEXT)`, table))
	names := []string{"akash", "akaash", "aakash", "vikram", "vikran", "priya"}
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, unitext('%s', english))", i, names[i%len(names)])
	}
	e.MustExec(sb.String())
}

// expensivePsiJoin is a Ψ self-join: n² edit-distance evaluations, far more
// than one cancel interval of row-steps.
func expensivePsiJoin(table string) string {
	return fmt.Sprintf(`SELECT count(*) FROM %[1]s a, %[1]s b
		WHERE a.name LEXEQUAL b.name THRESHOLD 2`, table)
}

// SET statement_timeout must bound a runaway Ψ join with the typed error,
// and SET statement_timeout = 0 must lift the bound again.
func TestStatementTimeoutSetting(t *testing.T) {
	e := memEngine(t)
	// 1600² pairs: with each outer row's operand compiled once, the join
	// still runs several times the 20 ms timeout on two cores.
	loadUniTable(t, e, "t", 1600)
	before := mQueryTimeouts.Value()
	e.MustExec(`SET statement_timeout = 20`)
	_, err := e.Exec(expensivePsiJoin("t"))
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("Ψ join under 20ms timeout = %v, want ErrQueryTimeout", err)
	}
	if got := mQueryTimeouts.Value(); got != before+1 {
		t.Errorf("mural_query_timeouts_total advanced by %d, want 1", got-before)
	}
	e.MustExec(`SET statement_timeout = 0`)
	if _, err := e.Exec(expensivePsiJoin("t")); err != nil {
		t.Fatalf("Ψ join with timeout lifted: %v", err)
	}
}

// Canceling ExecContext mid-statement surfaces ErrCanceled promptly.
func TestExecContextCancel(t *testing.T) {
	e := memEngine(t)
	// 1600² evaluations run several times longer than the 20 ms the canceler
	// sleeps plus the time one busy P takes to schedule it (at 800 rows the
	// hoisted join takes ~35 ms on two cores, too close to finishing first).
	loadUniTable(t, e, "t", 1600)
	before := mQueriesCanceled.Value()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := e.ExecContext(ctx, expensivePsiJoin("t"))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled Ψ join = %v, want ErrCanceled", err)
	}
	if elapsed > time.Second {
		t.Errorf("cancel took %s to be observed, want well under 1s", elapsed)
	}
	if got := mQueriesCanceled.Value(); got != before+1 {
		t.Errorf("mural_queries_canceled_total advanced by %d, want 1", got-before)
	}
}

// A deadline expiring during an Ω join surfaces ErrQueryTimeout: the join's
// pair loop checkpoints every pair it streams past an outer row's compiled
// probe.
func TestTimeoutDuringOmegaJoin(t *testing.T) {
	net := wordnet.Generate(wordnet.Config{Synsets: 20000, Seed: 1})
	e, err := Open(Config{WordNet: net})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE item (iid INT, cat UNITEXT)`)
	e.MustExec(`CREATE TABLE concept (cid INT, name UNITEXT)`)
	words := []string{"history", "historiography", "physics", "music", "art"}
	var sb strings.Builder
	sb.WriteString(`INSERT INTO item VALUES `)
	for i := 0; i < 4000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, unitext('%s', english))", i, words[i%len(words)])
	}
	e.MustExec(sb.String())
	sb.Reset()
	sb.WriteString(`INSERT INTO concept VALUES `)
	for i := 0; i < 40; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, unitext('%s', english))", i, words[i%len(words)])
	}
	e.MustExec(sb.String())
	e.MustExec(`SET statement_timeout = 1`)
	_, err = e.Exec(`SELECT count(*) FROM item i, concept c WHERE i.cat SEMEQUAL c.name`)
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("Ω join under 1ms timeout = %v, want ErrQueryTimeout", err)
	}
}

// SET max_query_mem bounds materializing queries with ErrMemoryLimit.
func TestQueryMemLimitSetting(t *testing.T) {
	e := memEngine(t)
	loadUniTable(t, e, "t", 2000)
	e.MustExec(`SET max_query_mem = 16384`)
	_, err := e.Exec(`SELECT id, name FROM t ORDER BY name`)
	if !errors.Is(err, ErrMemoryLimit) {
		t.Fatalf("sort under 16KiB budget = %v, want ErrMemoryLimit", err)
	}
	e.MustExec(`SET max_query_mem = 0`)
	if _, err := e.Exec(`SELECT id, name FROM t ORDER BY name`); err != nil {
		t.Fatalf("sort with budget lifted: %v", err)
	}
}

// SET max_query_mem bounds an Ω scan's compiled operand like any other
// materialization: a concept whose closure filter overruns 4 KiB fails with
// ErrMemoryLimit while a leaf concept runs, and lifting the limit runs both.
func TestQueryMemLimitCoversOmegaOperand(t *testing.T) {
	net := wordnet.Generate(wordnet.Config{Synsets: 20000, Seed: 1})
	e, err := Open(Config{WordNet: net})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE doc (id INT, cat UNITEXT)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO doc VALUES `)
	for i := 0; i < 3000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, unitext('%s', english))", i, net.Lemma(types.LangEnglish, wordnet.SynsetID(i*6)))
	}
	e.MustExec(sb.String())
	// With the table's size known, a closure of ~2500 synsets compiles to a
	// filter of 16 bits a synset rounded up to a power of two: 8 KiB, over
	// 4 KiB.
	e.MustExec(`ANALYZE doc`)
	big := fmt.Sprintf(`SELECT id FROM doc WHERE cat SEMEQUAL '%s'`, net.Lemma(types.LangEnglish, net.FindClosureOfSize(2500)))
	leaf := fmt.Sprintf(`SELECT id FROM doc WHERE cat SEMEQUAL '%s'`, net.Lemma(types.LangEnglish, net.FindClosureOfSize(1)))
	e.MustExec(`SET max_query_mem = 4096`)
	if _, err := e.Exec(big); !errors.Is(err, ErrMemoryLimit) {
		t.Fatalf("Ω scan of a 2500-synset closure under a 4KiB budget = %v, want ErrMemoryLimit", err)
	}
	if _, err := e.Exec(leaf); err != nil {
		t.Fatalf("Ω scan of a leaf under a 4KiB budget: %v", err)
	}
	e.MustExec(`SET max_query_mem = 0`)
	res, err := e.Exec(big)
	if err != nil {
		t.Fatalf("Ω scan with the budget lifted: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Error("the 2500-synset closure holds no document")
	}
}

// Admission control: an open cursor holds its slot until Close, and excess
// statements are rejected with the typed error.
func TestAdmissionControl(t *testing.T) {
	e, err := Open(Config{MaxConcurrentQueries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE t (id INT)`)
	e.MustExec(`INSERT INTO t VALUES (1), (2), (3)`)
	before := mAdmissionRejected.Value()
	rows, err := e.Query(`SELECT id FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(`SELECT id FROM t`); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("second statement = %v, want ErrAdmissionRejected", err)
	}
	if got := mAdmissionRejected.Value(); got != before+1 {
		t.Errorf("mural_admission_rejected_total advanced by %d, want 1", got-before)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(`SELECT id FROM t`); err != nil {
		t.Fatalf("statement after cursor close: %v (slot not released)", err)
	}
}

// EXPLAIN ANALYZE reports the query's peak accounted memory.
func TestExplainAnalyzeMemoryLine(t *testing.T) {
	e := memEngine(t)
	loadUniTable(t, e, "t", 500)
	res := e.MustExec(`EXPLAIN ANALYZE SELECT id, name FROM t ORDER BY name`)
	if !strings.Contains(res.Plan, "Memory: peak=") {
		t.Fatalf("EXPLAIN ANALYZE has no memory line:\n%s", res.Plan)
	}
	// A sort of 500 rows accounts a visibly nonzero peak.
	if strings.Contains(res.Plan, "Memory: peak=0 bytes") {
		t.Errorf("EXPLAIN ANALYZE peak is zero:\n%s", res.Plan)
	}
}

// An ungoverned statement still runs through the zero-overhead path: no
// context, no limits, no governance state.
func TestUngovernedPathStillWorks(t *testing.T) {
	e := memEngine(t)
	loadUniTable(t, e, "t", 100)
	res, stop := e.sess.set.Load().queryResources(context.Background())
	stop()
	if res != nil {
		t.Fatalf("queryResources with no limits = %v, want nil (ungoverned)", res)
	}
	if r := e.MustExec(`SELECT count(*) FROM t`); r.Rows[0][0].Int() != 100 {
		t.Fatalf("count = %v", r.Rows[0])
	}
}
