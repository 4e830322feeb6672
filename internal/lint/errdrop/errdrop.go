// Package errdrop flags silently discarded errors in the engine's internal
// packages — stricter than go vet: any call statement (plain, deferred, or
// go'd) whose callee returns an error that nobody reads is an error. An
// explicit `_ = f()` assignment is allowed: it is a visible, greppable
// decision. Genuinely fire-and-forget calls take //lint:errdrop-ok.
//
// Exempt by convention, mirroring the standard library's own contracts:
// fmt.Print/Printf/Println; fmt.Fprint* into a *bytes.Buffer or
// *strings.Builder; and methods on bytes.Buffer and strings.Builder, all of
// which document that they never return a meaningful error.
//
// Interprocedural: calls to module functions whose summary proves the error
// result is nil on every path (interface-satisfying Close methods that
// cannot fail, and helpers forwarding to them) are exempt — the drop
// discards nothing.
package errdrop

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/mural-db/mural/internal/lint/analysis"
	"github.com/mural-db/mural/internal/lint/lintutil"
	"github.com/mural-db/mural/internal/lint/summary"
)

var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc:  "no silently discarded error returns in internal packages; use `_ =` or //lint:errdrop-ok to make the drop explicit",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.ImportPath) {
		return nil
	}
	ann := lintutil.CollectAnnotations(pass.Fset, pass.Files)
	table := summary.ForPkg(pass.Fset, pass.Pkg, pass.TypesInfo, pass.Files)
	for _, fd := range lintutil.FuncDecls(pass) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var call *ast.CallExpr
			var kind string
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
				kind = "call"
			case *ast.DeferStmt:
				call = s.Call
				kind = "deferred call"
			case *ast.GoStmt:
				call = s.Call
				kind = "go'd call"
			default:
				return true
			}
			if call == nil || !returnsError(pass, call) || exempt(pass, call) {
				return true
			}
			// Summary-proven harmless: the callee's error is nil on every path.
			if fn := lintutil.StaticCallee(pass.TypesInfo, call); fn != nil && table.AlwaysNilError(fn) {
				return true
			}
			if ann.Has(call.Pos(), "errdrop-ok") {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s to %s discards its error result; handle it, assign it to _ explicitly, or annotate //lint:errdrop-ok",
				kind, lintutil.CalleeName(call))
			return true
		})
	}
	return nil
}

// inScope covers the engine's internal packages and the mural facade; bare
// paths are standalone analysistest packages. cmd/ and examples stay out.
func inScope(importPath string) bool {
	return strings.Contains(importPath, "/internal/") ||
		strings.HasSuffix(importPath, "/mural") ||
		!strings.Contains(importPath, "/")
}

func returnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if lintutil.IsErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return lintutil.IsErrorType(tv.Type)
}

func exempt(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	// Methods on bytes.Buffer / strings.Builder never fail.
	if s, ok := pass.TypesInfo.Selections[sel]; ok {
		if isBufferish(s.Recv()) {
			return true
		}
		return false
	}
	// Package-qualified: fmt.Print*, and fmt.Fprint* into in-memory writers.
	if pkgID, ok := sel.X.(*ast.Ident); ok {
		if obj, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName); ok && obj.Imported().Path() == "fmt" {
			switch name {
			case "Print", "Printf", "Println":
				return true
			case "Fprint", "Fprintf", "Fprintln":
				if len(call.Args) > 0 {
					if tv, ok := pass.TypesInfo.Types[call.Args[0]]; ok && isBufferish(tv.Type) {
						return true
					}
				}
			}
		}
	}
	return false
}

func isBufferish(t types.Type) bool {
	n := lintutil.NamedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	pkg, name := n.Obj().Pkg().Path(), n.Obj().Name()
	return (pkg == "bytes" && name == "Buffer") || (pkg == "strings" && name == "Builder")
}
