// Command murallint runs the project's static-analysis suite — pinbalance,
// iterclose, walorder, errdrop, metricname, and the interprocedural
// lockscope, membalance and govcheck analyzers — plus a selected set of go
// vet passes over the module. It exits non-zero if any check reports a
// finding that is not suppressed by the baseline.
//
// Usage:
//
//	go run ./cmd/murallint [flags] [packages]
//
//	-run name[,name...]   run only the named analyzers
//	-novet                skip the go vet passes
//	-list                 list analyzers and exit
//	-v                    print per-analyzer timings to stderr
//	-json                 print findings as a JSON array on stdout
//	-sarif FILE           also write findings as SARIF 2.1.0 to FILE
//	-baseline FILE        suppress findings listed in FILE
//	                      (default lint.baseline.json if it exists)
//
// Packages default to ./... . Text diagnostics print as
// path:line:col: message [analyzer].
//
// Before any analyzer runs, the driver loads every requested package,
// feeds all of them to one summary.Table, freezes it, and installs it as
// the process-global table — so each analyzer sees whole-module function
// summaries (lock effects, blocking ops, parameter fates, checkpoints)
// instead of single-package ones. Packages × analyzers then run as a
// parallel work queue across GOMAXPROCS workers; the frozen table is
// read-only, and diagnostics are collected per job and emitted in
// deterministic (file, offset, analyzer) order.
//
// The baseline file records known, justified findings:
//
//	{"entries": [{"analyzer": ..., "file": ..., "message": ...,
//	              "justification": ...}, ...]}
//
// A finding matches an entry when analyzer, module-relative file path and
// message are all equal (line numbers are deliberately ignored so edits
// above a finding don't invalidate it). Baseline entries that no longer
// match any finding are STALE and fail the run: a fixed finding must leave
// the baseline with it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/mural-db/mural/internal/lint/analysis"
	"github.com/mural-db/mural/internal/lint/errdrop"
	"github.com/mural-db/mural/internal/lint/govcheck"
	"github.com/mural-db/mural/internal/lint/iterclose"
	"github.com/mural-db/mural/internal/lint/load"
	"github.com/mural-db/mural/internal/lint/lockscope"
	"github.com/mural-db/mural/internal/lint/membalance"
	"github.com/mural-db/mural/internal/lint/metricname"
	"github.com/mural-db/mural/internal/lint/pinbalance"
	"github.com/mural-db/mural/internal/lint/summary"
	"github.com/mural-db/mural/internal/lint/walorder"
)

var analyzers = []*analysis.Analyzer{
	errdrop.Analyzer,
	govcheck.Analyzer,
	govcheck.HotMetric,
	iterclose.Analyzer,
	lockscope.Analyzer,
	membalance.Analyzer,
	metricname.Analyzer,
	pinbalance.Analyzer,
	walorder.Analyzer,
}

// vetPasses are the vet analyzers murallint layers under its own checks.
var vetPasses = []string{
	"atomic", "bools", "copylocks", "errorsas", "loopclosure",
	"lostcancel", "nilfunc", "printf", "stdmethods", "unreachable",
	"unusedresult",
}

// finding is one diagnostic in module-relative, serializable form.
type finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`

	offset int // for deterministic ordering; not serialized
}

func main() {
	runFilter := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	noVet := flag.Bool("novet", false, "skip the go vet passes")
	list := flag.Bool("list", false, "list analyzers and exit")
	verbose := flag.Bool("v", false, "print per-analyzer timings to stderr")
	jsonOut := flag.Bool("json", false, "print findings as JSON on stdout")
	sarifPath := flag.String("sarif", "", "write findings as SARIF 2.1.0 to this file")
	baselinePath := flag.String("baseline", "lint.baseline.json",
		"baseline file of suppressed findings (empty string disables)")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected := analyzers
	if *runFilter != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*runFilter, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "murallint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if !*noVet {
		failed = runVet(patterns) || failed
	}

	pkgs, err := load.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "murallint: %v\n", err)
		os.Exit(2)
	}
	if len(pkgs) == 0 {
		return
	}
	fset := pkgs[0].Fset // load.Load builds all packages on one FileSet

	// Whole-module summaries: every package goes into one table (go list
	// -deps order is dependency order, which AddPackage requires), which is
	// then frozen and installed globally for all analyzers.
	table := summary.NewTable(fset)
	for _, pkg := range pkgs {
		table.AddPackage(pkg.Types, pkg.Info, pkg.Files)
	}
	table.Freeze()
	summary.SetGlobal(table)

	findings, timings, runFailed := runAnalyzers(pkgs, selected)
	failed = failed || runFailed

	if *verbose {
		printTimings(timings)
	}

	// Baseline suppression. The default file is optional; an explicitly
	// named one must exist.
	if *baselinePath != "" {
		bl, err := loadBaseline(*baselinePath)
		if err != nil {
			if !os.IsNotExist(err) || *baselinePath != "lint.baseline.json" {
				fmt.Fprintf(os.Stderr, "murallint: baseline: %v\n", err)
				os.Exit(2)
			}
		} else {
			ran := make(map[string]bool, len(selected))
			for _, a := range selected {
				ran[a.Name] = true
			}
			var stale []baselineEntry
			findings, stale = bl.apply(findings, ran)
			for _, e := range stale {
				fmt.Fprintf(os.Stderr,
					"murallint: stale baseline entry: %s %s: %q no longer matches any finding; remove it\n",
					e.Analyzer, e.File, e.Message)
				failed = true
			}
		}
	}

	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, selected, findings); err != nil {
			fmt.Fprintf(os.Stderr, "murallint: sarif: %v\n", err)
			os.Exit(2)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "murallint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Column, f.Message, f.Analyzer)
		}
	}

	if len(findings) > 0 || failed {
		os.Exit(1)
	}
}

// runAnalyzers fans packages × analyzers out over GOMAXPROCS workers. The
// frozen global summary table is read-only, token.FileSet positions are
// internally locked, and each job writes only its own result slot, so jobs
// are independent. Results are flattened in (package, analyzer) order and
// then position-sorted, making the output independent of scheduling.
func runAnalyzers(pkgs []*load.Package, selected []*analysis.Analyzer) ([]finding, map[string]time.Duration, bool) {
	type job struct{ pi, ai int }
	type result struct {
		findings []finding
		elapsed  time.Duration
		err      error
	}

	cwd, _ := os.Getwd()
	fset := pkgs[0].Fset
	results := make([][]result, len(pkgs))
	for i := range results {
		results[i] = make([]result, len(selected))
	}

	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				pkg, a := pkgs[j.pi], selected[j.ai]
				res := &results[j.pi][j.ai]
				start := time.Now()
				pass := &analysis.Pass{
					Analyzer:   a,
					Fset:       fset,
					Files:      pkg.Files,
					Pkg:        pkg.Types,
					ImportPath: pkg.ImportPath,
					TypesInfo:  pkg.Info,
					Report: func(d analysis.Diagnostic) {
						p := fset.Position(d.Pos)
						res.findings = append(res.findings, finding{
							Analyzer: a.Name,
							File:     relPath(cwd, p.Filename),
							Line:     p.Line,
							Column:   p.Column,
							Message:  d.Message,
							offset:   p.Offset,
						})
					},
				}
				res.err = a.Run(pass)
				res.elapsed = time.Since(start)
			}
		}()
	}
	for pi := range pkgs {
		for ai := range selected {
			jobs <- job{pi, ai}
		}
	}
	close(jobs)
	wg.Wait()

	failed := false
	var findings []finding
	timings := map[string]time.Duration{}
	for pi, pkg := range pkgs {
		for ai, a := range selected {
			res := results[pi][ai]
			timings[a.Name] += res.elapsed
			if res.err != nil {
				fmt.Fprintf(os.Stderr, "murallint: %s: %s: %v\n", a.Name, pkg.ImportPath, res.err)
				failed = true
			}
			findings = append(findings, res.findings...)
		}
	}
	sort.SliceStable(findings, func(i, j int) bool {
		if findings[i].File != findings[j].File {
			return findings[i].File < findings[j].File
		}
		if findings[i].offset != findings[j].offset {
			return findings[i].offset < findings[j].offset
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, timings, failed
}

func printTimings(timings map[string]time.Duration) {
	names := make([]string, 0, len(timings))
	for n := range timings {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return timings[names[i]] > timings[names[j]] })
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "murallint: %-12s %v\n", n, timings[n].Round(time.Millisecond))
	}
}

// relPath maps an absolute file name to a module-relative, slash-separated
// path — the stable coordinate used by the baseline and SARIF output.
func relPath(cwd, filename string) string {
	if cwd != "" {
		if rel, err := filepath.Rel(cwd, filename); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(filename)
}

// ---- baseline ----

type baselineEntry struct {
	Analyzer      string `json:"analyzer"`
	File          string `json:"file"`
	Message       string `json:"message"`
	Justification string `json:"justification"`
}

type baseline struct {
	Entries []baselineEntry `json:"entries"`
}

func loadBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bl baseline
	if err := json.Unmarshal(data, &bl); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	for i, e := range bl.Entries {
		if e.Justification == "" {
			return nil, fmt.Errorf("%s: entry %d (%s %s) has no justification; every suppression must say why", path, i, e.Analyzer, e.File)
		}
	}
	return &bl, nil
}

// apply filters out baselined findings and returns the survivors plus the
// stale entries that matched nothing. Entries for analyzers that were not
// run (a -run subset) are neither matched nor stale — their findings were
// never produced, so their absence proves nothing.
func (bl *baseline) apply(findings []finding, ran map[string]bool) ([]finding, []baselineEntry) {
	matched := make([]bool, len(bl.Entries))
	var kept []finding
	for _, f := range findings {
		suppressed := false
		for i, e := range bl.Entries {
			if e.Analyzer == f.Analyzer && e.File == f.File && e.Message == f.Message {
				matched[i] = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	var stale []baselineEntry
	for i, e := range bl.Entries {
		if !matched[i] && ran[e.Analyzer] {
			stale = append(stale, e)
		}
	}
	return kept, stale
}

// ---- SARIF ----

// Minimal SARIF 2.1.0: one run, one rule per analyzer, one result per
// finding, locations relative to %SRCROOT% (the module root).
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

func writeSARIF(path string, selected []*analysis.Analyzer, findings []finding) error {
	rules := make([]sarifRule, 0, len(selected))
	for _, a := range selected {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "warning",
			Message: sarifText{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: f.File, URIBaseID: "%SRCROOT%"},
					Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "murallint", Rules: rules}},
			Results: results,
		}},
	}
	data, err := json.MarshalIndent(&log, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runVet shells out to the selected go vet passes; vet's own diagnostics go
// straight to stderr. Returns true on findings.
func runVet(patterns []string) bool {
	args := []string{"vet"}
	for _, p := range vetPasses {
		args = append(args, "-"+p)
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return true
	}
	return false
}
