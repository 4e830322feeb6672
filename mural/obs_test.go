package mural

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/mural-db/mural/internal/obs"
)

// showStmts runs SHOW STATEMENTS and indexes the rows by fingerprint.
func showStmts(t *testing.T, e *Engine) map[string]Tuple {
	t.Helper()
	res := e.MustExec(`SHOW STATEMENTS`)
	if len(res.Cols) == 0 || res.Cols[0] != "query" {
		t.Fatalf("SHOW STATEMENTS cols = %v", res.Cols)
	}
	out := make(map[string]Tuple, len(res.Rows))
	for _, row := range res.Rows {
		out[row[0].Text()] = row
	}
	return out
}

func TestShowStatementsAggregates(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE st (x INT)`)
	e.MustExec(`INSERT INTO st VALUES (1), (2), (3)`)
	// Three calls with different literals must share one fingerprint.
	e.MustExec(`SELECT * FROM st WHERE x = 1`)
	e.MustExec(`SELECT * FROM st WHERE x = 2`)
	e.MustExec(`select * from st where x = 3`)
	rows := showStmts(t, e)
	fp := "select * from st where x = ?"
	row, ok := rows[fp]
	if !ok {
		keys := make([]string, 0, len(rows))
		for k := range rows {
			keys = append(keys, k)
		}
		t.Fatalf("fingerprint %q missing; have %v", fp, keys)
	}
	colIdx := func(name string) int {
		res := e.MustExec(`SHOW STATEMENTS`)
		for i, c := range res.Cols {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing", name)
		return -1
	}
	if calls := row[colIdx("calls")].Int(); calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if n := row[colIdx("rows")].Int(); n != 3 {
		t.Errorf("rows = %d, want 3 (one match per call)", n)
	}
	if total := row[colIdx("total_ms")].Float(); total <= 0 {
		t.Errorf("total_ms = %v, want > 0", total)
	}
	if p99 := row[colIdx("p99_ms")].Float(); p99 <= 0 {
		t.Errorf("p99_ms = %v, want > 0", p99)
	}

	// Errors count under their own fingerprint's errors column.
	_, _ = e.Exec(`SELECT nosuch FROM st WHERE x = 9`)
	rows = showStmts(t, e)
	errRow, ok := rows["select nosuch from st where x = ?"]
	if !ok {
		t.Fatal("error statement not recorded")
	}
	if errs := errRow[colIdx("errors")].Int(); errs != 1 {
		t.Errorf("errors = %d, want 1", errs)
	}
}

func TestShowStatementsDisabled(t *testing.T) {
	e, err := Open(Config{StmtStatsEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE d (x INT)`)
	e.MustExec(`SELECT * FROM d`)
	res := e.MustExec(`SHOW STATEMENTS`)
	if len(res.Rows) != 0 {
		t.Errorf("disabled store returned %d rows", len(res.Rows))
	}
	if e.Statements() != nil {
		t.Error("Statements() must be nil when disabled")
	}
}

func TestSlowQueryLogEnriched(t *testing.T) {
	var buf bytes.Buffer
	e, err := Open(Config{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &buf})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE tt (x INT)`)
	e.MustExec(`INSERT INTO tt VALUES (3), (1), (2)`)
	// Governed execution (session timeout) so the sort's memory is accounted.
	e.MustExec(`SET statement_timeout = 600000`)
	e.MustExec(`SELECT * FROM tt ORDER BY x`)
	var rec slowQueryRecord
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Query != `SELECT * FROM tt ORDER BY x` || rec.Rows != 3 {
		t.Fatalf("bad record: %+v", rec)
	}
	if rec.PeakMem <= 0 {
		t.Errorf("peak_mem_bytes = %d, want > 0 for a governed sort", rec.PeakMem)
	}
	// The statement was planned fresh: at least one plan-cache miss.
	if rec.CacheMisses <= 0 {
		t.Errorf("cache_misses = %d, want > 0", rec.CacheMisses)
	}
}

// decodeSpans parses JSON-lines trace output.
func decodeSpans(t *testing.T, data string) []map[string]any {
	t.Helper()
	var spans []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(data), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		spans = append(spans, m)
	}
	return spans
}

func TestTraceExportSampled(t *testing.T) {
	var sink bytes.Buffer
	e, err := Open(Config{TraceSink: &sink, TraceSampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE tr (x INT)`)
	e.MustExec(`INSERT INTO tr VALUES (1), (2)`)
	// Every sampled statement exports a root span; keep the SELECT's tree.
	sink.Reset()
	e.MustExec(`SELECT * FROM tr WHERE x = 1`)
	spans := decodeSpans(t, sink.String())
	if len(spans) < 3 {
		t.Fatalf("spans = %d, want >= 3 (query, plan, operators):\n%s", len(spans), sink.String())
	}
	kinds := map[string]bool{}
	id := spans[0]["trace_id"]
	for _, s := range spans {
		kinds[s["kind"].(string)] = true
		if s["trace_id"] != id {
			t.Errorf("trace id mismatch: %v vs %v", s["trace_id"], id)
		}
	}
	for _, k := range []string{"query", "plan", "operator"} {
		if !kinds[k] {
			t.Errorf("no %q span exported:\n%s", k, sink.String())
		}
	}
}

func TestTraceForcedByContextID(t *testing.T) {
	var sink bytes.Buffer
	// Rate 0: only explicitly tagged statements may export.
	e, err := Open(Config{TraceSink: &sink, TraceSampleRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE tf (x INT)`)
	e.MustExec(`INSERT INTO tf VALUES (1)`)
	e.MustExec(`SELECT * FROM tf`)
	if sink.Len() != 0 {
		t.Fatalf("untagged statement exported at rate 0:\n%s", sink.String())
	}
	ctx := obs.WithTraceID(context.Background(), 0xabc)
	if _, err := e.ExecContext(ctx, `SELECT * FROM tf`); err != nil {
		t.Fatal(err)
	}
	spans := decodeSpans(t, sink.String())
	if len(spans) < 3 {
		t.Fatalf("tagged statement spans = %d, want >= 3", len(spans))
	}
	for _, s := range spans {
		if s["trace_id"] != "0000000000000abc" {
			t.Errorf("span trace_id = %v, want 0000000000000abc", s["trace_id"])
		}
	}
	// Streaming path: QueryContext must export the same way.
	sink.Reset()
	rows, err := e.QueryContext(obs.WithTraceID(context.Background(), 0xdef), `SELECT * FROM tf`)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	spans = decodeSpans(t, sink.String())
	if len(spans) < 3 {
		t.Fatalf("QueryContext spans = %d, want >= 3:\n%s", len(spans), sink.String())
	}
	for _, s := range spans {
		if s["trace_id"] != "0000000000000def" {
			t.Errorf("span trace_id = %v, want 0000000000000def", s["trace_id"])
		}
	}
}

func TestTraceChromeFormat(t *testing.T) {
	var sink bytes.Buffer
	e, err := Open(Config{TraceSink: &sink, TraceFormat: "chrome", TraceSampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE tc (x INT)`)
	e.MustExec(`SELECT * FROM tc`)
	out := sink.String()
	if !strings.HasPrefix(out, "[\n") {
		t.Fatalf("chrome trace must open a JSON array:\n%s", out)
	}
	if !strings.Contains(out, `"ph":"X"`) {
		t.Errorf("no complete events in chrome trace:\n%s", out)
	}
}

// TestQueryContextObserved: the streaming path must feed the statement
// store with the rows the consumer actually saw.
func TestQueryContextObserved(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE qs (x INT)`)
	e.MustExec(`INSERT INTO qs VALUES (1), (2), (3)`)
	rows, err := e.Query(`SELECT * FROM qs WHERE x > 0`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("streamed %d rows, want 3", n)
	}
	st := showStmts(t, e)
	row, ok := st["select * from qs where x > ?"]
	if !ok {
		t.Fatal("streamed statement not in SHOW STATEMENTS")
	}
	if row[1].Int() != 1 || row[3].Int() != 3 { // calls, rows
		t.Errorf("calls=%d rows=%d, want 1/3", row[1].Int(), row[3].Int())
	}
}

// TestFeedbackGenerationInvalidatesPlanCache: establishing a feedback cell
// must move the plan-cache key so warm statements re-plan.
func TestFeedbackKeyUsesGeneration(t *testing.T) {
	e := memEngine(t)
	if e.fb == nil {
		t.Fatal("feedback must default on")
	}
	g0 := e.feedbackGen()
	e.fb.Observe("psi", "names", 1, 0.1)
	if g1 := e.feedbackGen(); g1 == g0 {
		t.Error("generation did not move on establishment")
	}
	// DDL purges feedback (and bumps the generation again).
	e.MustExec(`CREATE TABLE fg (x INT)`)
	if _, ok := e.fb.Observed("psi", "names", 1); ok {
		t.Error("feedback survived DDL purge")
	}
}
