// Command murallint runs the project's static-analysis suite over the
// module's packages and exits non-zero if any analyzer reports a finding.
// A finding that is intended is suppressed where it occurs, by a
// //lint:<kind> <reason> annotation (grammar in internal/lint/lintutil);
// there is no other suppression mechanism. go vet runs on its own.
//
// Usage:
//
//	go run ./cmd/murallint [flags] [packages]
//
//	-run name[,name...]   run only the named analyzers
//	-list                 list analyzers and exit
//	-v                    print per-analyzer timings to stderr
//	-sarif FILE           also write findings as SARIF 2.1.0 to FILE
//
// Packages default to ./... . Diagnostics print as
// path:line:col: message [analyzer].
//
// Before any analyzer runs, the driver loads every requested package,
// feeds all of them to one summary.Table, freezes it, and installs it as
// the process-global table — so each analyzer sees whole-module function
// summaries (lock effects, blocking ops, checkpoints, batch commits)
// instead of single-package ones. Diagnostics are emitted in
// (file, offset, analyzer) order.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/mural-db/mural/internal/lint/analysis"
	"github.com/mural-db/mural/internal/lint/errdrop"
	"github.com/mural-db/mural/internal/lint/govcheck"
	"github.com/mural-db/mural/internal/lint/load"
	"github.com/mural-db/mural/internal/lint/lockscope"
	"github.com/mural-db/mural/internal/lint/pinbalance"
	"github.com/mural-db/mural/internal/lint/summary"
	"github.com/mural-db/mural/internal/lint/walorder"
)

var analyzers = []*analysis.Analyzer{
	errdrop.Analyzer,
	govcheck.Analyzer,
	lockscope.Analyzer,
	pinbalance.Analyzer,
	walorder.Analyzer,
}

// finding is one diagnostic in module-relative form.
type finding struct {
	Analyzer, File, Message string
	Line, Column, offset    int
}

func main() {
	runFilter := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	verbose := flag.Bool("v", false, "print per-analyzer timings to stderr")
	sarifPath := flag.String("sarif", "", "write findings as SARIF 2.1.0 to this file")
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
	pkgs, err := load.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "murallint: %v\n", err)
		os.Exit(2)
	}
	if len(pkgs) == 0 {
		return
	}

	// Whole-module summaries: every package goes into one table (go list
	// -deps order is dependency order, which AddPackage requires), which is
	// then frozen and installed globally for all analyzers.
	table := summary.NewTable(pkgs[0].Fset) // load.Load builds all packages on one FileSet
	for _, pkg := range pkgs {
		table.AddPackage(pkg.Types, pkg.Info, pkg.Files)
	}
	table.Freeze()
	summary.SetGlobal(table)

	findings, timings, failed := runAnalyzers(pkgs, selected)
	if *verbose {
		printTimings(timings)
	}
	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, selected, findings); err != nil {
			fmt.Fprintf(os.Stderr, "murallint: sarif: %v\n", err)
			os.Exit(2)
		}
	}
	for _, f := range findings {
		fmt.Printf("%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Column, f.Message, f.Analyzer)
	}
	if len(findings) > 0 || failed {
		os.Exit(1)
	}
}

// runAnalyzers runs every selected analyzer over every package and returns
// the findings position-sorted, the time spent per analyzer, and whether an
// analyzer itself failed.
func runAnalyzers(pkgs []*load.Package, selected []*analysis.Analyzer) ([]finding, map[string]time.Duration, bool) {
	cwd, _ := os.Getwd()
	fset := pkgs[0].Fset
	var findings []finding
	timings := map[string]time.Duration{}
	failed := false
	for _, pkg := range pkgs {
		for _, a := range selected {
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
					findings = append(findings, finding{
						Analyzer: a.Name,
						File:     relPath(cwd, p.Filename),
						Line:     p.Line,
						Column:   p.Column,
						Message:  d.Message,
						offset:   p.Offset,
					})
				},
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "murallint: %s: %s: %v\n", a.Name, pkg.ImportPath, err)
				failed = true
			}
			timings[a.Name] += time.Since(start)
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
// path — the stable coordinate the text and SARIF output use.
func relPath(cwd, filename string) string {
	if cwd != "" {
		if rel, err := filepath.Rel(cwd, filename); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(filename)
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
