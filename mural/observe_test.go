package mural

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/mural-db/mural/internal/wordnet"
)

// planLine returns the first plan line whose operator matches op.
func planLine(plan, op string) string {
	for _, line := range strings.Split(plan, "\n") {
		if strings.Contains(line, op) {
			return line
		}
	}
	return ""
}

var actualRE = regexp.MustCompile(`\(actual rows=(\d+) loops=(\d+) time=([^)]+)\)`)

// actualOf parses the "(actual rows=N loops=L time=T)" annotation.
func actualOf(t *testing.T, line string) (rows, loops int64) {
	t.Helper()
	m := actualRE.FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("no actual annotation in %q", line)
	}
	rows, _ = strconv.ParseInt(m[1], 10, 64)
	loops, _ = strconv.ParseInt(m[2], 10, 64)
	return rows, loops
}

func TestExplainAnalyzeSeqScan(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	res := e.MustExec(`EXPLAIN ANALYZE SELECT id, title FROM book WHERE price < 10`)
	scan := planLine(res.Plan, "SeqScan")
	if scan == "" {
		t.Fatalf("no SeqScan in plan:\n%s", res.Plan)
	}
	rows, loops := actualOf(t, scan)
	if rows != 6 || loops != 1 {
		t.Errorf("SeqScan actual rows=%d loops=%d, want 6/1:\n%s", rows, loops, res.Plan)
	}
	filter := planLine(res.Plan, "Filter")
	if filter == "" {
		t.Fatalf("no Filter in plan:\n%s", res.Plan)
	}
	if rows, _ := actualOf(t, filter); rows != 3 {
		t.Errorf("Filter actual rows=%d, want 3:\n%s", rows, res.Plan)
	}
	if res.Elapsed <= 0 {
		t.Error("EXPLAIN ANALYZE must record elapsed time")
	}
	if !strings.Contains(res.Plan, "Actual:") {
		t.Errorf("summary line missing:\n%s", res.Plan)
	}
	// The rows of the result are the plan text itself.
	if len(res.Rows) == 0 || res.Cols[0] != "plan" {
		t.Errorf("EXPLAIN must return plan rows, got cols=%v rows=%d", res.Cols, len(res.Rows))
	}
}

// TestExplainAnalyzeLexEqual checks the Ψ (LexEQUAL) operator under EXPLAIN
// ANALYZE through the full SQL path. (The M-Tree index-scan variant is
// pinned at the exec layer — see TestMTreeScanAnalyze — because the cost
// model only picks the metric index on catalogs far larger than a unit test
// should build.)
func TestExplainAnalyzeLexEqual(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	res := e.MustExec(`EXPLAIN ANALYZE SELECT id FROM book
		WHERE author LEXEQUAL 'Nehru' THRESHOLD 2 IN english, hindi, tamil`)
	line := planLine(res.Plan, "Ψ")
	if line == "" {
		t.Fatalf("no Ψ operator in plan:\n%s", res.Plan)
	}
	rows, loops := actualOf(t, line)
	// One pass over the operator — or, below a Gather (what the planner picks
	// depends on the machine's core count), one per worker: the documented
	// loops = workers convention. Rows are totals either way.
	wantLoops := int64(1)
	if g := planLine(res.Plan, "Gather workers="); g != "" {
		if _, err := fmt.Sscanf(g[strings.Index(g, "workers="):], "workers=%d", &wantLoops); err != nil {
			t.Fatalf("cannot read the worker count of %q: %v", g, err)
		}
	}
	// Figure 2: Nehru matches its Hindi and Tamil spellings too.
	if rows != 3 || loops != wantLoops {
		t.Errorf("Ψ operator actual rows=%d loops=%d, want 3/%d:\n%s", rows, loops, wantLoops, res.Plan)
	}
	if res.Stats.PsiEvaluations != 6 {
		t.Errorf("psi_evals = %d, want 6 (one per scanned row)", res.Stats.PsiEvaluations)
	}
}

func TestExplainAnalyzeOmega(t *testing.T) {
	net := wordnet.Generate(wordnet.Config{Synsets: 3000, Seed: 1})
	e, err := Open(Config{WordNet: net})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE item (iid INT, cat UNITEXT)`)
	e.MustExec(`INSERT INTO item VALUES
		(1, unitext('historiography', english)),
		(2, unitext('physics', english))`)
	res := e.MustExec(`EXPLAIN ANALYZE SELECT iid FROM item WHERE cat SEMEQUAL 'history'`)
	if res.Stats.OmegaProbes == 0 {
		t.Errorf("Ω probes not recorded:\n%s", res.Plan)
	}
	if !strings.Contains(res.Plan, "actual rows=") {
		t.Errorf("no actuals in Ω plan:\n%s", res.Plan)
	}
}

// TestExplainAnalyzeJoinLoops checks that inner-side rescans of a
// nested-loops join show up as loops on the Materialize node.
func TestExplainAnalyzeJoinLoops(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE l (a INT)`)
	e.MustExec(`CREATE TABLE r (b INT)`)
	e.MustExec(`INSERT INTO l VALUES (1), (2), (3)`)
	e.MustExec(`INSERT INTO r VALUES (10), (20)`)
	res := e.MustExec(`EXPLAIN ANALYZE SELECT a, b FROM l, r WHERE a < b`)
	mat := planLine(res.Plan, "Materialize")
	if mat == "" {
		t.Skipf("no Materialize in plan:\n%s", res.Plan)
	}
	rows, loops := actualOf(t, mat)
	// Three outer rows: one initial pass plus two rewinds.
	if loops != 3 {
		t.Errorf("Materialize loops=%d, want 3:\n%s", loops, res.Plan)
	}
	if rows != 6 {
		t.Errorf("Materialize total rows=%d, want 6 (2 rows x 3 loops):\n%s", rows, res.Plan)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	e, err := Open(Config{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &buf})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE tt (x INT)`)
	e.MustExec(`INSERT INTO tt VALUES (1), (2)`)
	e.MustExec(`SELECT * FROM tt`)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("slow-query log lines = %d, want >= 3:\n%s", len(lines), buf.String())
	}
	var rec struct {
		TS        string  `json:"ts"`
		Query     string  `json:"query"`
		ElapsedMS float64 `json:"elapsed_ms"`
		Rows      int64   `json:"rows"`
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &rec); err != nil {
		t.Fatalf("log line %q: %v", last, err)
	}
	if rec.Query != `SELECT * FROM tt` || rec.Rows != 2 || rec.ElapsedMS <= 0 || rec.TS == "" {
		t.Errorf("bad slow-query record: %+v", rec)
	}
}

// TestExplainAnalyzeSpans: a sampled EXPLAIN ANALYZE exports to the trace
// sink like any statement — one root span, and one span per executed
// operator from the same timed collector the plan text was rendered from.
func TestExplainAnalyzeSpans(t *testing.T) {
	var sink bytes.Buffer
	e, err := Open(Config{TraceSink: &sink, TraceSampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE tt (x INT)`)
	e.MustExec(`INSERT INTO tt VALUES (1)`)
	sink.Reset()
	e.MustExec(`EXPLAIN ANALYZE SELECT * FROM tt WHERE x = 1`)
	var roots, scans int
	for _, s := range decodeSpans(t, sink.String()) {
		switch {
		case s["kind"] == "query":
			roots++
			if s["name"] != `EXPLAIN ANALYZE SELECT * FROM tt WHERE x = 1` {
				t.Errorf("root span name = %v", s["name"])
			}
		case s["kind"] == "operator" && strings.HasPrefix(s["name"].(string), "SeqScan"):
			scans++
		}
	}
	if roots != 1 || scans != 1 {
		t.Errorf("root spans = %d, SeqScan spans = %d, want 1/1:\n%s", roots, scans, sink.String())
	}
}

// BenchmarkSelectNoStats guards the disabled-stats fast path: regular
// execution must not pay for EXPLAIN ANALYZE instrumentation.
func BenchmarkSelectNoStats(b *testing.B) {
	e := memEngine(b)
	e.MustExec(`CREATE TABLE bt (x INT, s TEXT)`)
	var vals []string
	for i := 0; i < 500; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 's%d')", i, i))
	}
	e.MustExec(`INSERT INTO bt VALUES ` + strings.Join(vals, ","))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(`SELECT count(*) FROM bt WHERE x < 250`); err != nil {
			b.Fatal(err)
		}
	}
}
