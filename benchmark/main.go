// Command benchmark is MURAL's one benchmark: a single-process closed-loop
// load generator that hosts one mural.Engine behind a server.Server, drives
// it through client.Conn over loopback on four seeded workloads, checks
// every answer against an oracle of its own, and prints every metric by name
// with its unit. README.md says what is measured and why.
//
//	go run . -workload psi_scan -seed 1 -seconds 10 -trace 0   one run, result as the last line
//	go run . -trace 2 -repeat 5                                 all workloads, both runs, out/results.json
//	go run . -compare a.json b.json                             verdict per workload × metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// defaultSeconds is the length of one timed window, and BENCHMARK.json's
// run_seconds.
const defaultSeconds = 10

var workloadNames = []string{"psi_scan", "psi_join", "omega_scan", "oltp_mixed"}

func main() {
	var (
		workload = flag.String("workload", "", "run this workload only and print its result as the last line (default: all four)")
		seed     = flag.Int64("seed", goldenSeed, "seed of the generated inputs and statement streams")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the timed window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, every probe off; 1: per-layer metrics from the traced run; 2: both")
		repeat   = flag.Int("repeat", 1, "whole runs; out/results.json holds median and quartiles of each metric")
		smoke    = flag.Bool("smoke", false, "tiny fixtures, for checking that the benchmark still runs")
		outDir   = flag.String("out", "out", "directory for results.json, trace files and the on-disk fixture")
		cmp      = flag.Bool("compare", false, "compare two results.json files given as arguments; exit 1 if a metric regressed")
		mani     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		golden   = flag.Bool("update-golden", false, "rewrite "+goldenPath+" and exit")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *repeat, *smoke, *outDir, *cmp, *mani, *golden); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace, repeat int, smoke bool, outDir string, cmp, mani, golden bool) error {
	switch {
	case mani:
		b, err := manifest()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	case golden:
		return updateGolden()
	case cmp:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two results.json files")
		}
		base, err := readResults(flag.Arg(0))
		if err != nil {
			return err
		}
		cur, err := readResults(flag.Arg(1))
		if err != nil {
			return err
		}
		if compare(os.Stdout, base, cur) {
			return fmt.Errorf("at least one end-to-end metric regressed")
		}
		return nil
	}
	names := workloadNames
	if workload != "" {
		names = []string{workload}
	}
	sc := fullScale
	if smoke {
		sc = smokeScale
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	res := results{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit(), Seed: seed, Seconds: seconds}
	var last outcome
	wrong := 0
	for _, name := range names {
		var runs []map[string]float64
		for r := 0; r < repeat; r++ {
			out := outcome{correct: true, metrics: map[string]float64{}}
			if trace != 1 {
				o, err := endToEndRun(name, seed, sc, seconds, outDir)
				if err != nil {
					return err
				}
				out = o
			}
			if trace != 0 {
				o, err := tracedRun(name, seed, sc, seconds, outDir)
				if err != nil {
					return err
				}
				for k, v := range out.metrics {
					o.metrics[k] = v
				}
				o.attempted += out.attempted
				o.failed += out.failed
				o.correct = o.correct && out.correct
				out = o
			}
			printMetrics(name, out)
			runs = append(runs, out.metrics)
			wrong += out.failed
			last = out
		}
		res.Records = append(res.Records, summarise(name, runs)...)
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "results.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if workload != "" {
		// The last line of standard output is the result of the run.
		defs := endToEnd
		if trace == 1 {
			defs = perLayer
		}
		return printResult(last, defs)
	}
	if wrong > 0 {
		return fmt.Errorf("%d statements failed or answered wrongly", wrong)
	}
	return nil
}

func printMetrics(workload string, out outcome) {
	for _, d := range allMetrics() {
		if v, ok := out.metrics[d.Name]; ok {
			fmt.Printf("%-11s %-38s %14.6g %s\n", workload, d.Name, v, d.Unit)
		}
	}
	fmt.Printf("%-11s attempted %d failed %d error_rate %g\n", workload, out.attempted, out.failed, ratio(float64(out.failed), float64(out.attempted)))
}

// printResult prints the one-line result: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func printResult(out outcome, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, map[string]value{}}
	for _, d := range defs {
		res.Metrics[d.Name] = value{out.metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// commit is the revision the binary was built from, when the build knew it.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
