// Command benchrunner regenerates every table and figure of the paper's
// evaluation section against this reproduction, printing the same
// rows/series the paper reports.
//
// Usage:
//
//	benchrunner -exp all                 # every experiment at default scale
//	benchrunner -exp table4 -names 25000 # paper-scale Ψ experiment
//	benchrunner -exp fig8 -synsets 111223 -full
//	benchrunner -exp fig6|fig7|regress|ablation
//	benchrunner -exp parallel            # intra-query parallel speedup sweep
//	benchrunner -exp concurrent          # concurrent-session insert throughput sweep
//	benchrunner -exp govern              # cancellation-checkpoint overhead on the Ψ scan
//	benchrunner -exp observe             # observability (stats+feedback+tracing) overhead
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"

	"github.com/mural-db/mural/internal/bench"
	"github.com/mural-db/mural/internal/wordnet"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table4|fig6|fig7|fig8|regress|ablation|parallel|concurrent|govern|observe|all")
		names   = flag.Int("names", 5000, "names table size for table4 (paper: ~25000)")
		probes  = flag.Int("probes", 50, "probe table size for table4 joins")
		synsets = flag.Int("synsets", 20000, "taxonomy size for fig8 (paper: 111223)")
		full    = flag.Bool("full", false, "paper-scale settings (slow)")
		seed    = flag.Int64("seed", 2006, "dataset seed")
	)
	flag.Parse()
	if *full {
		*names = 25000
		*synsets = wordnet.WordNetSynsets
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("\n=== %s ===\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("table4", func() error { return runTable4(*names, *probes, *seed) })
	run("fig6", func() error { return runFig6(*seed) })
	run("fig7", func() error { return runFig7(*seed, *full) })
	run("fig8", func() error { return runFig8(*synsets, *seed, *full) })
	run("regress", func() error { return runRegress(*seed) })
	run("ablation", func() error { return runAblation(*seed) })
	run("parallel", func() error { return runParallel(*names, *probes, *seed) })
	run("concurrent", func() error { return runConcurrent() })
	run("govern", func() error { return runGovern(*names, *seed) })
	run("observe", func() error { return runObserve(*names, *seed) })
}

func runTable4(names, probes int, seed int64) error {
	fmt.Printf("Ψ (LexEQUAL) performance — %d names, threshold 3 (paper Table 4)\n\n", names)
	rows, err := bench.RunTable4(bench.Table4Config{Names: names, ProbeNames: probes, Threshold: 3, Queries: 5, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %-12s %12s %12s\n", "Implementation", "Query Type", "Scan (s)", "Join (s)")
	label := map[string]string{
		"core/none":    "Core / No Index",
		"core/mtree":   "Core / M-Tree Index",
		"outside/none": "Outside / No Index",
		"outside/mdi":  "Outside / MDI Index",
	}
	for _, r := range rows {
		fmt.Printf("%-22s %-12s %12.4f %12.4f\n", label[r.Impl+"/"+r.Index], "", r.ScanSec, r.JoinSec)
	}
	core, outside := rows[0], rows[3]
	fmt.Printf("\nspeedup core(no idx) vs outside(MDI): scan %.0fx, join %.0fx\n",
		outside.ScanSec/core.ScanSec, outside.JoinSec/core.JoinSec)
	fmt.Printf("M-Tree vs core no-index: scan %.2fx (paper: marginal)\n", rows[0].ScanSec/rows[1].ScanSec)
	return nil
}

func runFig6(seed int64) error {
	fmt.Println("Optimizer predicted cost vs actual runtime (paper Figure 6)")
	res, err := bench.RunFigure6(bench.Fig6Config{
		TableSizes: []int{300, 1000, 3000}, Thresholds: []int{1, 2, 3}, DupFactors: []int{1, 2}, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("\n%-24s %14s %14s %10s\n", "query", "pred. cost", "runtime (ms)", "rows")
	sorted := append([]bench.Fig6Point(nil), res.Points...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Cost < sorted[j].Cost })
	for _, p := range sorted {
		fmt.Printf("%-24s %14.1f %14.2f %10d\n", p.Query, p.Cost, p.RuntimeMS, p.Rows)
	}
	fmt.Printf("\nlog-log correlation coefficient: %.3f  (paper: well over 0.9)\n", res.LogCorrelation)
	return nil
}

func runFig7(seed int64, full bool) error {
	cfg := bench.Fig7Config{Authors: 400, Publishers: 100, Books: 4000, Seed: seed}
	if full {
		cfg = bench.Fig7Config{Authors: 1000, Publishers: 200, Books: 20000, Seed: seed}
	}
	fmt.Printf("Example 5 plan comparison — %d authors, %d publishers, %d books (paper Figure 7)\n\n",
		cfg.Authors, cfg.Publishers, cfg.Books)
	res, err := bench.RunFigure7(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %16s %14s\n", "plan", "predicted cost", "runtime (s)")
	fmt.Printf("%-22s %16.0f %14.4f\n", res.Plan1.Name, res.Plan1.PredictedCost, res.Plan1.RuntimeSec)
	fmt.Printf("%-22s %16.0f %14.4f\n", res.Plan2.Name, res.Plan2.PredictedCost, res.Plan2.RuntimeSec)
	fmt.Printf("\nruntime ratio plan2/plan1: %.1fx  (paper: 2338.31 s / 82.15 s ≈ 28x)\n",
		res.Plan2.RuntimeSec/res.Plan1.RuntimeSec)
	fmt.Printf("optimizer picks plan 1 unforced: %v  (paper: yes)\n", res.ChosenMatchesPlan1)
	fmt.Printf("\nchosen plan:\n%s", res.ChosenPlanText)
	return nil
}

func runFig8(synsets int, seed int64, full bool) error {
	targets := []int{100, 300, 1000, 3000}
	maxNoIdx := 1000
	if full {
		targets = []int{100, 300, 1000, 3000, 10000}
		maxNoIdx = 3000
	}
	fmt.Printf("Ω closure computation — %d synsets (paper Figure 8, log-log)\n\n", synsets)
	points, err := bench.RunFigure8(bench.Fig8Config{
		Synsets: synsets, Targets: targets, MaxOutsideNoIndex: maxNoIdx, Seed: seed, IncludePinned: true})
	if err != nil {
		return err
	}
	bySeries := map[string][]bench.Fig8Point{}
	var order []string
	for _, p := range points {
		if _, ok := bySeries[p.Series]; !ok {
			order = append(order, p.Series)
		}
		bySeries[p.Series] = append(bySeries[p.Series], p)
	}
	for _, s := range order {
		fmt.Printf("%s:\n", s)
		for _, p := range bySeries[s] {
			fmt.Printf("  |TC| = %6d   %10.5f s\n", p.ClosureSize, p.Seconds)
		}
	}
	return nil
}

func runParallel(names, probes int, seed int64) error {
	fmt.Printf("Intra-query parallel speedup — %d names, Ψ scan + join, workers sweep (%d cores)\n\n",
		names, runtime.NumCPU())
	points, err := bench.RunParallelSpeedup(bench.ParallelSpeedupConfig{
		Names: names, ProbeNames: probes, Threshold: 3, Queries: 5, Seed: seed})
	if err != nil {
		return err
	}
	base := map[string]float64{}
	fmt.Printf("%-10s %8s %12s %10s %10s\n", "workload", "workers", "time (s)", "speedup", "matches")
	for _, p := range points {
		if p.Workers == 1 {
			base[p.Workload] = p.Seconds
		}
		speedup := 0.0
		if p.Seconds > 0 {
			speedup = base[p.Workload] / p.Seconds
		}
		fmt.Printf("%-10s %8d %12.4f %9.2fx %10d\n", p.Workload, p.Workers, p.Seconds, speedup, p.Matches)
	}
	return nil
}

func runConcurrent() error {
	fmt.Println("Concurrent-session durable insert throughput (group-commit WAL)")
	fmt.Println()
	points, err := bench.RunConcurrentSessions(bench.ConcurrentConfig{})
	if err != nil {
		return err
	}
	var base float64
	fmt.Printf("%-12s %10s %12s %12s %10s %10s %10s\n",
		"connections", "rows", "time (s)", "rows/s", "speedup", "commits", "syncs")
	for _, p := range points {
		if p.Connections == 1 {
			base = p.RowsSec
		}
		speedup := 0.0
		if base > 0 {
			speedup = p.RowsSec / base
		}
		fmt.Printf("%-12d %10d %12.4f %12.0f %9.2fx %10d %10d\n",
			p.Connections, p.Rows, p.Seconds, p.RowsSec, speedup, p.WALCommits, p.WALSyncs)
	}
	last := points[len(points)-1]
	fmt.Printf("\ngroup commit: %d commits retired by %d syncs at %d connections\n",
		last.WALCommits, last.WALSyncs, last.Connections)
	return nil
}

func runRegress(seed int64) error {
	fmt.Println("Standard-query regression check (§5.1)")
	res, err := bench.RunRegression(bench.RegressionConfig{Rows: 5000, Runs: 5, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("plain schema:        %.4f s/suite\n", res.PlainSec)
	fmt.Printf("multilingual schema: %.4f s/suite\n", res.MultiSec)
	fmt.Printf("ratio: %.2f  (paper: no statistically significant degradation)\n", res.Ratio)
	return nil
}

func runAblation(seed int64) error {
	fmt.Println("E6: M-Tree split policy (§4.2.1)")
	split, err := bench.RunAblationMTreeSplit(3000, 20, 2, seed)
	if err != nil {
		return err
	}
	for _, r := range split {
		fmt.Printf("  %-8s build=%.4fs pages/search=%.1f index-pages=%d\n",
			r.Policy, r.BuildSec, r.AvgSearchPages, r.IndexPages)
	}
	fmt.Println("\nE7: closure cache (§4.3)")
	cache, err := bench.RunAblationClosureCache(10000, 5000, 4, seed)
	if err != nil {
		return err
	}
	for _, r := range cache {
		fmt.Printf("  %-22s %.5fs (%d probes)\n", r.Mode, r.Seconds, r.Probes)
	}
	fmt.Printf("  speedup: %.0fx\n", cache[1].Seconds/cache[0].Seconds)
	fmt.Println("\nE9: closure connection index (§4.3.1 future work, Ω's production path)")
	conn, err := bench.RunAblationClosureIndex(20000, 200000, 4, seed)
	if err != nil {
		return err
	}
	for _, r := range conn {
		if r.BuildSec > 0 {
			fmt.Printf("  %-26s build=%.4fs probes=%.4fs (%d probes)\n", r.Mode, r.BuildSec, r.QuerySec, r.Probes)
		} else {
			fmt.Printf("  %-26s probes=%.4fs (%d probes)\n", r.Mode, r.QuerySec, r.Probes)
		}
	}
	fmt.Println("\nE10: Ψ access paths (alternate index structures)")
	paths, err := bench.RunAblationPsiIndexes(5000, seed)
	if err != nil {
		return err
	}
	for _, r := range paths {
		fmt.Printf("  k=%d %-8s %.4fs/query\n", r.Threshold, r.Path, r.AvgSec)
	}
	fmt.Println("\nE8: edit distance algorithm (§3.3)")
	ed, err := bench.RunAblationEditDistance(500, 2, seed)
	if err != nil {
		return err
	}
	for _, r := range ed {
		fmt.Printf("  %-8s %.4fs matches=%d\n", r.Algorithm, r.Seconds, r.Matches)
	}
	return nil
}

func runGovern(names int, seed int64) error {
	fmt.Printf("Cancellation-checkpoint overhead — Table 4 Ψ scan, %d names\n\n", names)
	res, err := bench.RunGovernOverhead(bench.GovernOverheadConfig{Names: names, Threshold: 3, Queries: 5, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("ungoverned (nil Resources):       %.4f s/query\n", res.UngovernedSec)
	fmt.Printf("governed (10-min timeout armed):  %.4f s/query\n", res.GovernedSec)
	fmt.Printf("checkpoint overhead: %+.2f%%  (budget: < 2%%)\n", res.OverheadPct)
	return nil
}

func runObserve(names int, seed int64) error {
	fmt.Printf("Observability overhead — Table 4 Ψ scan, %d names\n\n", names)
	res, err := bench.RunObserveOverhead(bench.ObserveOverheadConfig{Names: names, Threshold: 3, Queries: 5, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("collection disabled:                 %.4f s/query\n", res.BaselineSec)
	fmt.Printf("stats + feedback + sampled tracing:  %.4f s/query\n", res.ObservedSec)
	fmt.Printf("observability overhead: %+.2f%%  (budget: < 2%%)\n", res.OverheadPct)
	fmt.Printf("statement aggregates resident: %d\n", res.Statements)
	return nil
}
