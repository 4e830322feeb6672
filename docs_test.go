package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docGoPath matches a backticked repository path to a Go file, such as
// `internal/plan/place.go`.
var docGoPath = regexp.MustCompile("`([A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)+\\.go)`")

// stalePaths reports, as doc:line entries, every backticked Go file path in
// text that names no file in the repository.
func stalePaths(doc, text string) []string {
	var out []string
	for i, line := range strings.Split(text, "\n") {
		for _, m := range docGoPath.FindAllStringSubmatch(line, -1) {
			if _, err := os.Stat(filepath.FromSlash(m[1])); err != nil {
				out = append(out, fmt.Sprintf("%s:%d: `%s`", doc, i+1, m[1]))
			}
		}
	}
	return out
}

// TestDocPathsExist fails on any backticked Go file path in DESIGN.md or
// README.md that names no file in the repository, so a deleted or renamed
// file cannot stay cited.
func TestDocPathsExist(t *testing.T) {
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		t.Run(doc, func(t *testing.T) {
			data, err := os.ReadFile(doc)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range stalePaths(doc, string(data)) {
				t.Errorf("%s names no file in the repository", s)
			}
		})
	}
}

// The check reports a cited file that is gone, on its own line, and passes
// one that exists and a path that is not backticked.
func TestDocPathsFlagStalePath(t *testing.T) {
	text := "The planner (`internal/plan/place.go`) places exchanges.\n" +
		"The coordinator lived in `mural/shard.go` and the codec in `internal/plan/fragment.go`.\n" +
		"The Go runtime's netpoll_epoll.go is not a repository path.\n"
	want := []string{"DOC:2: `mural/shard.go`", "DOC:2: `internal/plan/fragment.go`"}
	if got := stalePaths("DOC", text); !slices.Equal(got, want) {
		t.Errorf("stale paths = %q, want %q", got, want)
	}
}
