// Package walorder enforces the log-before-write discipline of the
// physical after-image WAL (see DESIGN.md). Page images must reach the
// disk only through the pool's writeback path, which the WAL batch
// protocol dominates, so the check has two parts:
//
//  1. WritePage confinement — inside internal/storage and mural, a call to
//     a WritePage method is legal only in the pool's writeback function, in
//     methods of Disk implementations (types that themselves provide
//     WritePage, i.e. wrappers forwarding to an inner disk), or under a
//     //lint:wal-exempt annotation. Anything else is a page mutation that
//     bypasses the log.
//
//  2. Batch balance — a successful BeginBatch/beginBatch must on every path
//     be followed by commitBatch/commitDDL/commitGrouped or
//     AbortBatch/rollbackBatch before the function exits; an open batch
//     left behind stalls group commit and breaks recovery atomicity. A
//     commit counts as a release whether or not it succeeds: one that
//     fails has rolled its batch back before it returns.
package walorder

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/mural-db/mural/internal/lint/analysis"
	"github.com/mural-db/mural/internal/lint/lifetime"
	"github.com/mural-db/mural/internal/lint/lintutil"
	"github.com/mural-db/mural/internal/lint/summary"
)

var Analyzer = &analysis.Analyzer{
	Name: "walorder",
	Doc:  "page writes must flow through the WAL-dominated writeback path, and WAL batches must be committed or aborted on every path",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.ImportPath) {
		return nil
	}
	ann := lintutil.CollectAnnotations(pass.Fset, pass.Files)
	table := summary.ForPkg(pass.Fset, pass.Pkg, pass.TypesInfo, pass.Files)
	checkWritePageConfinement(pass, ann)
	lifetime.Check(pass, ann, lifetime.Spec{
		Noun: "WAL batch",
		IsAcquire: func(pass *analysis.Pass, call *ast.CallExpr) bool {
			name := lintutil.CalleeName(call)
			return name == "BeginBatch" || name == "beginBatch"
		},
		ReleaseNames: []string{
			"commitBatch", "commitDDL", "commitGrouped",
			"AbortBatch", "rollbackBatch",
		},
		// Summary-driven: a helper that transitively commits or aborts the
		// batch balances it too, whatever its name.
		IsReleaseCall: func(pass *analysis.Pass, call *ast.CallExpr) bool {
			fn := lintutil.StaticCallee(pass.TypesInfo, call)
			return fn != nil && table.CommitsBatch(fn)
		},
		Valueless:  true,
		Annotation: "wal-exempt",
	})
	return nil
}

// inScope limits the check to the storage kernel and the engine facade.
// Bare (slash-free) paths are standalone analysistest packages.
func inScope(importPath string) bool {
	return strings.Contains(importPath, "internal/storage") ||
		strings.HasSuffix(importPath, "/mural") ||
		!strings.Contains(importPath, "/")
}

func checkWritePageConfinement(pass *analysis.Pass, ann *lintutil.Annotations) {
	for _, fd := range lintutil.FuncDecls(pass) {
		if fd.Name.Name == "writeback" || receiverImplementsWritePage(pass, fd) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || lintutil.CalleeName(call) != "WritePage" {
				return true
			}
			if _, isMethod := call.Fun.(*ast.SelectorExpr); !isMethod {
				return true
			}
			if ann.Has(call.Pos(), "wal-exempt") {
				return true
			}
			pass.Reportf(call.Pos(),
				"WritePage outside the WAL-dominated writeback path: page images must be logged before they reach disk (annotate //lint:wal-exempt if this IS the logging path)")
			return true
		})
	}
}

// receiverImplementsWritePage reports whether fd is a method on a type that
// itself provides WritePage — a Disk implementation or wrapper, whose
// methods legitimately forward page writes.
func receiverImplementsWritePage(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return false
	}
	m, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, "WritePage")
	_, ok := m.(*types.Func)
	return ok
}
