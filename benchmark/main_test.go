package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/mural-db/mural/internal/phonetic"
)

// TestSmoke runs every workload at the smoke scale, untraced and traced:
// oracle, write tail, crash check and trace writer included. It is what
// breaks when a later change alters an API the benchmark stands on. Run it
// at GOMAXPROCS 1, 2 and 8.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			out, err := endToEndRun(name, goldenSeed, smokeScale, 0.3, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !out.correct || out.failed != 0 || out.attempted == 0 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", out.correct, out.attempted, out.failed)
			}
			for _, d := range endToEnd {
				if v, ok := out.metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive value", d.Name, v)
				}
			}

			out, err = tracedRun(name, goldenSeed+1, smokeScale, 0.6, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !out.correct || out.failed != 0 {
				t.Fatalf("traced run: correct=%v attempted=%d failed=%d", out.correct, out.attempted, out.failed)
			}
			for _, d := range perLayer {
				if _, ok := out.metrics[d.Name]; !ok {
					t.Errorf("per-layer metric %s is missing", d.Name)
				}
			}
			for _, positive := range []string{"wire.ping_us", "sql.parse_us_per_stmt", "exec.run_ms_per_stmt", "mural.load_rows_per_s", "host.control_ms", "bench.samples_read"} {
				if out.metrics[positive] <= 0 {
					t.Errorf("%s = %v, want a positive value", positive, out.metrics[positive])
				}
			}
			if name == "oltp_mixed" {
				if out.metrics["mural.recovery_s"] <= 0 || out.metrics["storage.wal.fsync_ms_p50"] <= 0 || out.metrics["bench.samples_write"] <= 0 {
					t.Errorf("oltp_mixed: crash check, fsync timing or writes missing: %v", out.metrics)
				}
			}
			b, err := os.ReadFile(filepath.Join(dir, name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Name string
					Ph   string
					Dur  float64
				}
			}
			if err := json.Unmarshal(b, &trace); err != nil {
				t.Fatalf("trace file does not load: %v", err)
			}
			seen := map[string]bool{}
			for _, e := range trace.TraceEvents {
				seen[e.Name] = true
			}
			for _, want := range []string{"stmt", "client.query", "client.drain", "sql.parse", "plan.explain", "exec.run"} {
				if !seen[want] {
					t.Errorf("trace has no %q span", want)
				}
			}
		})
	}
}

// TestCrashCheckSeesLoss cuts the log at zero, as if no Sync had ever
// completed: the rows acknowledged since the last checkpoint must be
// reported lost, or the crash check checks nothing.
func TestCrashCheckSeesLoss(t *testing.T) {
	w := newOLTPMixed(goldenSeed, smokeScale)
	f, err := setUp(w, filepath.Join(t.TempDir(), "db"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	var fails failures
	drive(f.conns[:1], []func() stmt{w.stream(w, 0)}, 0, 60, &fails)
	if fails.n != 0 || w.ackedRows() == 0 {
		t.Fatalf("%d statements failed, %d rows acknowledged", fails.n, w.ackedRows())
	}
	if err := f.hangUp(); err != nil {
		t.Fatal(err)
	}
	if lost, _, err := crashCheck(f, w); err != nil || lost != 0 {
		t.Fatalf("honest crash: lost %d, err %v", lost, err)
	}
	f.wal.synced = 0
	if lost, _, err := crashCheck(f, w); err != nil || lost == 0 {
		t.Fatalf("log cut at 0: lost %d of %d, err %v; want a loss", lost, w.ackedRows(), err)
	}
}

// TestOracleSeesWrongAnswer: a result set that misses a row, or has one too
// many, must not pass.
func TestOracleSeesWrongAnswer(t *testing.T) {
	w := newPsiScan(goldenSeed, smokeScale)
	f, err := setUp(w, "", false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	next := w.stream(w, 0)
	for i := 0; i < 20; i++ {
		s := next()
		rows, _, _, err := issue(f.conns[0], s)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.check(rows); err != nil {
			t.Fatalf("right answer rejected: %v", err)
		}
		if len(rows) > 0 {
			if s.check(rows[1:]) == nil || s.check(append(rows, rows[0])) == nil {
				t.Fatalf("wrong answer accepted for %s", s.sql)
			}
			return
		}
	}
	t.Fatal("no statement returned rows")
}

func TestLevenshteinAgreesWithEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		b := make([]rune, rng.Intn(9))
		for i := range b {
			b[i] = []rune("abɪʃʈ")[rng.Intn(5)]
		}
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		a, b := word(), word()
		if got, want := levenshtein([]rune(a), []rune(b)), phonetic.EditDistance(a, b); got != want {
			t.Fatalf("levenshtein(%q, %q) = %d, engine says %d", a, b, got, want)
		}
		if got, want := within([]rune(a), []rune(b), 2), phonetic.EditDistance(a, b) <= 2; got != want {
			t.Fatalf("within(%q, %q, 2) = %v", a, b, got)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	p25, med, p75 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if p25 != 2.75 || med != 5.5 || p75 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", p25, med, p75)
	}
	p25, med, p75 = quartiles([]float64{3, 1, 2, 5, 4})
	if p25 != 1.5 || med != 3 || p75 != 4.5 {
		t.Fatalf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", p25, med, p75)
	}
}

func TestCompareVerdicts(t *testing.T) {
	rec := func(metric string, med, p25, p75 float64) record {
		return record{Workload: "psi_scan", Metric: metric, Unit: "x", N: 5, Median: med, P25: p25, P75: p75}
	}
	base := &results{Records: []record{
		rec("stmts_per_s", 100, 99, 101), rec("read_p50_ms", 10, 9.9, 10.1), rec("cpu_ms_per_stmt", 10, 9.9, 10.1), rec("wire.ping_us", 10, 10, 10),
	}}
	cur := &results{Records: []record{
		rec("stmts_per_s", 70, 69, 71), rec("read_p50_ms", 10.5, 10.4, 10.6), rec("cpu_ms_per_stmt", 20, 10, 30), rec("wire.ping_us", 99, 99, 99),
	}}
	var buf bytes.Buffer
	if !compare(&buf, base, cur) {
		t.Fatalf("a 30%% throughput loss did not count as a regression:\n%s", buf.String())
	}
	for _, want := range []string{"stmts_per_s", "regressed", "unresolved", "ok"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	if compare(&buf, base, base) {
		t.Fatalf("a file regressed against itself:\n%s", buf.String())
	}
}

func TestOperatorSelfTimes(t *testing.T) {
	got := operatorSelfTimes([]string{
		"Project  (rows=1500 cost=2336.6) (actual rows=16 loops=1 time=18ms)",
		"  Gather workers=2  (rows=1500 cost=1165.3) (actual rows=16 loops=1 time=17ms)",
		"    Filter cond=[Ψ(names.name, unitext('a', 'english'), k=2)]  (rows=1500 cost=2329.1) (actual rows=16 loops=2 time=30ms)",
		"      SeqScan names [parallel]  (rows=100000 cost=1461.0) (actual rows=100000 loops=2 time=20ms)",
		"Actual: rows=16 elapsed=17.682307ms index_pages=0 psi_evals=100000 omega_probes=0",
	})
	want := map[string]time.Duration{"project": time.Millisecond, "gather": 2 * time.Millisecond, "filter": 5 * time.Millisecond, "seqscan": 10 * time.Millisecond}
	for op, d := range want {
		if got[op] != d {
			t.Errorf("%s self time = %v, want %v (all: %v)", op, got[op], d, got)
		}
	}
}

// TestManifest keeps BENCHMARK.json at the root of the repository equal to
// what the program's own tables say.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above the benchmark's directory")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from `go run . -manifest`; regenerate it")
	}
	for _, w := range workloadWhy {
		if _, ok := builders[w.Name]; !ok || len(w.Why) > 200 {
			t.Errorf("workload %s: not built, or its reason is longer than 200 characters", w.Name)
		}
	}
}

// TestGolden regenerates the full-scale inputs and oracle answers of seed 1
// and holds them against golden/seed-1.json, so that drift in a generator
// shows in `go test`, not first at measurement time.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full-scale inputs")
	}
	for _, name := range workloadNames {
		if err := checkGolden(builders[name](goldenSeed, fullScale)); err != nil {
			t.Error(err)
		}
	}
}
