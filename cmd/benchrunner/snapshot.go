package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/mural-db/mural/internal/bench"
	"github.com/mural-db/mural/internal/metrics"
)

// perfSnapshot is the machine-readable performance record the CI run
// archives (BENCH_PR9.json): small-scale timings for the paper's headline
// experiments plus the engine-wide metric counters they drove. CPUs records
// the cores the snapshot machine had — the parallel sweep's speedups are
// meaningless without it (a 1-core box legitimately shows ~1x).
type perfSnapshot struct {
	GeneratedAt string `json:"generated_at"`
	Seed        int64  `json:"seed"`
	CPUs        int    `json:"cpus"`

	Table4 []struct {
		Impl    string  `json:"impl"`
		Index   string  `json:"index"`
		ScanSec float64 `json:"scan_sec"`
		JoinSec float64 `json:"join_sec"`
	} `json:"table4"`

	Fig6 struct {
		LogCorrelation float64 `json:"log_correlation"`
		Points         int     `json:"points"`
	} `json:"fig6"`

	Fig7 struct {
		Plan1Sec           float64 `json:"plan1_sec"`
		Plan2Sec           float64 `json:"plan2_sec"`
		RuntimeRatio       float64 `json:"runtime_ratio"`
		ChosenMatchesPlan1 bool    `json:"chosen_matches_plan1"`
	} `json:"fig7"`

	Fig8 []struct {
		Series      string  `json:"series"`
		ClosureSize int     `json:"closure_size"`
		Seconds     float64 `json:"seconds"`
	} `json:"fig8"`

	// Parallel is the intra-query parallelism sweep: the Table 4 Ψ scan and
	// join under SET workers = 1/2/4/8.
	Parallel []struct {
		Workload string  `json:"workload"`
		Workers  int     `json:"workers"`
		Seconds  float64 `json:"seconds"`
		Speedup  float64 `json:"speedup_vs_1_worker"`
	} `json:"parallel"`

	// Concurrent is the concurrent-session durable insert sweep: N wire
	// sessions inserting against one group-commit WAL.
	Concurrent []struct {
		Connections int     `json:"connections"`
		Rows        int     `json:"rows"`
		Seconds     float64 `json:"seconds"`
		RowsSec     float64 `json:"rows_per_sec"`
		WALCommits  uint64  `json:"wal_commits"`
		WALSyncs    uint64  `json:"wal_syncs"`
	} `json:"concurrent"`

	// Govern is the cancellation-checkpoint overhead measurement: the Ψ
	// scan with governance off vs under an effectively-infinite statement
	// timeout (checkpoints armed, deadline never fires).
	Govern struct {
		UngovernedSec float64 `json:"ungoverned_sec"`
		GovernedSec   float64 `json:"governed_sec"`
		OverheadPct   float64 `json:"overhead_pct"`
	} `json:"govern"`

	// Observe is the observability overhead measurement: the Ψ scan on an
	// engine with collection disabled vs one with statement statistics,
	// selectivity feedback, and a sampling tracer all armed.
	Observe struct {
		BaselineSec float64 `json:"baseline_sec"`
		ObservedSec float64 `json:"observed_sec"`
		OverheadPct float64 `json:"overhead_pct"`
		Statements  int     `json:"statements"`
	} `json:"observe"`

	// Metrics is the default-registry counter snapshot after the runs:
	// psi/omega evaluation counts, M-Tree distance computations, buffer
	// pool traffic and friends.
	Metrics map[string]int64 `json:"metrics"`
}

// runSnapshot executes the reduced-scale benchmark suite and writes the JSON
// snapshot to path.
func runSnapshot(path string, seed int64) error {
	metrics.Default.Reset()
	snap := perfSnapshot{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Seed:        seed,
		CPUs:        runtime.NumCPU(),
	}

	fmt.Println("snapshot: table4 (reduced scale)")
	t4, err := bench.RunTable4(bench.Table4Config{Names: 1500, ProbeNames: 20, Threshold: 3, Queries: 3, Seed: seed})
	if err != nil {
		return fmt.Errorf("table4: %w", err)
	}
	for _, r := range t4 {
		snap.Table4 = append(snap.Table4, struct {
			Impl    string  `json:"impl"`
			Index   string  `json:"index"`
			ScanSec float64 `json:"scan_sec"`
			JoinSec float64 `json:"join_sec"`
		}{r.Impl, r.Index, r.ScanSec, r.JoinSec})
	}

	fmt.Println("snapshot: fig6 (reduced scale)")
	f6, err := bench.RunFigure6(bench.Fig6Config{
		TableSizes: []int{300, 1000}, Thresholds: []int{1, 2}, DupFactors: []int{1}, Seed: seed})
	if err != nil {
		return fmt.Errorf("fig6: %w", err)
	}
	snap.Fig6.LogCorrelation = f6.LogCorrelation
	snap.Fig6.Points = len(f6.Points)

	fmt.Println("snapshot: fig7 (reduced scale)")
	f7, err := bench.RunFigure7(bench.Fig7Config{Authors: 200, Publishers: 50, Books: 1500, Seed: seed})
	if err != nil {
		return fmt.Errorf("fig7: %w", err)
	}
	snap.Fig7.Plan1Sec = f7.Plan1.RuntimeSec
	snap.Fig7.Plan2Sec = f7.Plan2.RuntimeSec
	if f7.Plan1.RuntimeSec > 0 {
		snap.Fig7.RuntimeRatio = f7.Plan2.RuntimeSec / f7.Plan1.RuntimeSec
	}
	snap.Fig7.ChosenMatchesPlan1 = f7.ChosenMatchesPlan1

	fmt.Println("snapshot: fig8 (reduced scale)")
	f8, err := bench.RunFigure8(bench.Fig8Config{
		Synsets: 5000, Targets: []int{100, 300}, MaxOutsideNoIndex: 300, Seed: seed, IncludePinned: true})
	if err != nil {
		return fmt.Errorf("fig8: %w", err)
	}
	for _, p := range f8 {
		snap.Fig8 = append(snap.Fig8, struct {
			Series      string  `json:"series"`
			ClosureSize int     `json:"closure_size"`
			Seconds     float64 `json:"seconds"`
		}{p.Series, p.ClosureSize, p.Seconds})
	}

	fmt.Println("snapshot: parallel speedup sweep (reduced scale)")
	pts, err := bench.RunParallelSpeedup(bench.ParallelSpeedupConfig{
		Names: 1500, ProbeNames: 20, Threshold: 3, Queries: 3, Seed: seed})
	if err != nil {
		return fmt.Errorf("parallel: %w", err)
	}
	base := map[string]float64{}
	for _, p := range pts {
		if p.Workers == 1 {
			base[p.Workload] = p.Seconds
		}
		speedup := 0.0
		if p.Seconds > 0 {
			speedup = base[p.Workload] / p.Seconds
		}
		snap.Parallel = append(snap.Parallel, struct {
			Workload string  `json:"workload"`
			Workers  int     `json:"workers"`
			Seconds  float64 `json:"seconds"`
			Speedup  float64 `json:"speedup_vs_1_worker"`
		}{p.Workload, p.Workers, p.Seconds, speedup})
	}

	fmt.Println("snapshot: concurrent-session throughput (reduced scale)")
	cc, err := bench.RunConcurrentSessions(bench.ConcurrentConfig{RowsPerConn: 100})
	if err != nil {
		return fmt.Errorf("concurrent: %w", err)
	}
	for _, p := range cc {
		snap.Concurrent = append(snap.Concurrent, struct {
			Connections int     `json:"connections"`
			Rows        int     `json:"rows"`
			Seconds     float64 `json:"seconds"`
			RowsSec     float64 `json:"rows_per_sec"`
			WALCommits  uint64  `json:"wal_commits"`
			WALSyncs    uint64  `json:"wal_syncs"`
		}{p.Connections, p.Rows, p.Seconds, p.RowsSec, p.WALCommits, p.WALSyncs})
	}

	fmt.Println("snapshot: cancellation-checkpoint overhead (reduced scale)")
	gov, err := bench.RunGovernOverhead(bench.GovernOverheadConfig{Names: 3000, Threshold: 3, Queries: 3, Seed: seed})
	if err != nil {
		return fmt.Errorf("govern: %w", err)
	}
	snap.Govern.UngovernedSec = gov.UngovernedSec
	snap.Govern.GovernedSec = gov.GovernedSec
	snap.Govern.OverheadPct = gov.OverheadPct

	fmt.Println("snapshot: observability overhead (reduced scale)")
	obs, err := bench.RunObserveOverhead(bench.ObserveOverheadConfig{Names: 3000, Threshold: 3, Queries: 3, Seed: seed})
	if err != nil {
		return fmt.Errorf("observe: %w", err)
	}
	snap.Observe.BaselineSec = obs.BaselineSec
	snap.Observe.ObservedSec = obs.ObservedSec
	snap.Observe.OverheadPct = obs.OverheadPct
	snap.Observe.Statements = obs.Statements

	// Counter snapshot of everything the runs drove through the engine.
	reg := metrics.Default.Snapshot()
	snap.Metrics = reg.Counters

	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("snapshot: wrote %s\n", path)
	return nil
}
