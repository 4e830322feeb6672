package govcheck

import (
	"go/ast"
	"go/types"

	"github.com/mural-db/mural/internal/lint/analysis"
	"github.com/mural-db/mural/internal/lint/lintutil"
	"github.com/mural-db/mural/internal/lint/summary"
)

// HotMetric guards the executor's counting rule: code that runs once per
// row must not write a process-wide metric or any other package-level
// atomic. Such a variable is one cache line shared by every goroutine; with
// Gather workers on several cores, a per-row increment makes the line bounce
// between them on every row (it was 43 % of a two-worker Ψ scan before the
// counts moved into the evaluator). Counts belong in memory the loop's
// goroutine owns, published with one Add per batch or per statement.
//
// What runs per row, using the same package-local call graph govcheck walks:
// the whole body of every operator Next (an operator's Next is called once
// per row) and of every matchRec (a fused kernel, called once per record);
// inside a NextBatch, the loops and the function literals (per-record
// callbacks) but not the straight-line code around them, which runs once per
// batch; and the whole body of every package-local function called from any
// of those. In such code the analyzer reports a direct write at the write,
// and a call into another package whose summary says it reaches one at the
// call. //lint:hot-metric <reason> on the site — or on a function
// declaration, which then neither is reported nor propagates to its
// callers — records an audited exception.
var HotMetric = &analysis.Analyzer{
	Name: "hotmetric",
	Doc:  "no write to a process-wide metric or other package-level atomic in code that runs once per row under an operator's Next/NextBatch/matchRec (count privately, publish per batch)",
	Run:  runHotMetric,
}

func runHotMetric(pass *analysis.Pass) error {
	if !inScope(pass.ImportPath) {
		return nil
	}
	ann := lintutil.CollectAnnotations(pass)
	table := summary.ForPkg(pass.Fset, pass.Pkg, pass.TypesInfo, pass.Files)
	decls := localDecls(pass)

	// Per-row regions: whole bodies of Next/matchRec, loops and literals of
	// NextBatch; then, as the walk meets them, whole bodies of local callees.
	var regions []ast.Node
	whole := map[*types.Func]bool{}
	for fn, fd := range decls {
		if fd.Recv == nil || ann.Has(fd.Pos(), "hot-metric") {
			continue
		}
		switch {
		case fn.Name() == "Next" && isRowSig(fn), fn.Name() == "matchRec":
			whole[fn] = true
			regions = append(regions, fd.Body)
		case fn.Name() == "NextBatch":
			regions = append(regions, loopsAndLiterals(fd.Body)...)
		}
	}
	reported := map[ast.Node]bool{}
	for len(regions) > 0 {
		region := regions[0]
		regions = regions[1:]
		ast.Inspect(region, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || reported[call] || ann.Has(call.Pos(), "hot-metric") {
				return true
			}
			if what, ok := summary.HotWriteOf(pass.TypesInfo, call); ok {
				reported[call] = true
				pass.Reportf(call.Pos(),
					"%s runs once per row: every Gather worker writes the same cache line on every row; count in the evaluator and publish per batch, or annotate with //lint:hot-metric", what)
				return true
			}
			callee := lintutil.StaticCallee(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			if fd, local := decls[callee]; local {
				if !whole[callee] && !ann.Has(fd.Pos(), "hot-metric") {
					whole[callee] = true
					regions = append(regions, fd.Body)
				}
				return true
			}
			if hot := table.HotWrites(callee); len(hot) > 0 {
				reported[call] = true
				via := lintutil.CalleeName(call)
				if hot[0].Via != "" {
					via += " → " + hot[0].Via
				}
				pass.Reportf(call.Pos(),
					"%s (via %s) runs once per row: every Gather worker writes the same cache line on every row; batch the count at its source, or annotate with //lint:hot-metric", hot[0].What, via)
			}
			return true
		})
	}
	return nil
}

// loopsAndLiterals returns the outermost for/range bodies and function
// literals under body.
func loopsAndLiterals(body *ast.BlockStmt) []ast.Node {
	var out []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt:
			out = append(out, x.Body)
			return false
		case *ast.RangeStmt:
			out = append(out, x.Body)
			return false
		case *ast.FuncLit:
			out = append(out, x.Body)
			return false
		}
		return true
	})
	return out
}
