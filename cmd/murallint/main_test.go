package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/lint/analysis"
)

// TestWriteSARIF pins the SARIF file CI uploads: one rule per selected
// analyzer, one result per finding at its module-relative location, and an
// empty results array (never null) for a clean run.
func TestWriteSARIF(t *testing.T) {
	selected := []*analysis.Analyzer{
		{Name: "errdrop", Doc: "errors are not discarded"},
		{Name: "lockscope", Doc: "no blocking I/O under a mutex"},
	}
	findings := []finding{
		{Analyzer: "lockscope", File: "internal/storage/wal.go", Line: 12, Column: 3, Message: "fsync (Sync) while holding storage.WAL.mu"},
		{Analyzer: "errdrop", File: "mural/ddl.go", Line: 40, Column: 2, Message: "error from Close is discarded"},
	}
	for _, tc := range []struct {
		name     string
		findings []finding
	}{{"findings", findings}, {"clean", nil}} {
		path := filepath.Join(t.TempDir(), "out.sarif")
		if err := writeSARIF(path, selected, tc.findings); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if tc.findings == nil && !strings.Contains(string(data), `"results": []`) {
			t.Errorf("%s: a clean run must write an empty results array:\n%s", tc.name, data)
		}
		var log sarifLog
		if err := json.Unmarshal(data, &log); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if log.Version != "2.1.0" || len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "murallint" {
			t.Fatalf("%s: want one murallint run of SARIF 2.1.0, got %+v", tc.name, log)
		}
		run := log.Runs[0]
		if len(run.Tool.Driver.Rules) != len(selected) {
			t.Fatalf("%s: want %d rules, got %+v", tc.name, len(selected), run.Tool.Driver.Rules)
		}
		for i, a := range selected {
			if r := run.Tool.Driver.Rules[i]; r.ID != a.Name || r.ShortDescription.Text != a.Doc {
				t.Errorf("%s: rule %d = %+v, want %s: %s", tc.name, i, r, a.Name, a.Doc)
			}
		}
		if len(run.Results) != len(tc.findings) {
			t.Fatalf("%s: want %d results, got %d", tc.name, len(tc.findings), len(run.Results))
		}
		for i, f := range tc.findings {
			r := run.Results[i]
			loc := r.Locations[0].PhysicalLocation
			if r.RuleID != f.Analyzer || r.Level != "warning" || r.Message.Text != f.Message ||
				loc.ArtifactLocation.URI != f.File || loc.ArtifactLocation.URIBaseID != "%SRCROOT%" ||
				loc.Region.StartLine != f.Line || loc.Region.StartColumn != f.Column {
				t.Errorf("%s: result %d = %+v, want finding %+v", tc.name, i, r, f)
			}
		}
	}
}

// TestRelPath: files under the module root print module-relative and
// slash-separated; anything outside it keeps its full name.
func TestRelPath(t *testing.T) {
	root := filepath.FromSlash("/src/mural")
	for _, tc := range []struct{ file, want string }{
		{filepath.FromSlash("/src/mural/internal/storage/wal.go"), "internal/storage/wal.go"},
		{filepath.FromSlash("/src/mural/main.go"), "main.go"},
		{filepath.FromSlash("/src/other/x.go"), "/src/other/x.go"},
	} {
		if got := relPath(root, tc.file); got != tc.want {
			t.Errorf("relPath(%q) = %q, want %q", tc.file, got, tc.want)
		}
	}
	if got := relPath("", filepath.FromSlash("/src/mural/main.go")); got != "/src/mural/main.go" {
		t.Errorf("relPath with no working directory = %q, want the full name", got)
	}
}
