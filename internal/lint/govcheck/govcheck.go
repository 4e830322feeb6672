// Package govcheck guards PR 6's cancelability invariant: every operator
// row loop reachable from the executor must contain an amortized
// cancellation checkpoint, so a canceled or timed-out query stops within a
// bounded amount of row work no matter which operators its plan uses.
//
// Concretely: starting from every operator entry point — a method named
// NextBatch returning (T, error), or a row-face Next returning (T, bool,
// error) — the analyzer walks the package-local static call graph (including
// goroutine launches, which is how Gather workers run). In every reached
// function, each row loop must reach a checkpoint: a direct `tick()` /
// `Resources.Err()` call, or a call to a function whose summary transitively
// checkpoints. A row loop is a for/range loop that ranges over a Batch's
// Rows or whose body pulls rows (calls a 3-result Next). A page loop — a
// for/range loop over the records of a Page, the view a page scan hands its
// callback: its header, init statement included, or body calls the Page's
// Len or Record, its bound is a local assigned from the Page's Len, or it
// walks a local assigned the slot array from the Page's Slots — is a row
// loop too, and is checked in every function of the package, reached or not:
// the callback that holds it is handed to nextPage/NextPage as a value, which
// the call graph does not follow. Loops that iterate bounded,
// row-independent structures (projection column lists, schema slices) are
// not flagged. Intentional exceptions carry //lint:gov-exempt on the loop or
// the function declaration.
package govcheck

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"github.com/mural-db/mural/internal/lint/analysis"
	"github.com/mural-db/mural/internal/lint/lintutil"
	"github.com/mural-db/mural/internal/lint/summary"
)

var Analyzer = &analysis.Analyzer{
	Name: "govcheck",
	Doc:  "every row loop reachable from an operator NextBatch/Next, and every loop over a scan's Page, contains an amortized cancellation checkpoint (tick / Resources.Err, directly or via a summarized callee)",
	Run:  run,
}

// inScope: operator trees live in the executor and the engine facade (plus
// bare testdata packages).
func inScope(path string) bool {
	return strings.Contains(path, "internal/exec") ||
		strings.HasSuffix(path, "/mural") ||
		!strings.Contains(path, "/")
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.ImportPath) {
		return nil
	}
	ann := lintutil.CollectAnnotations(pass.Fset, pass.Files)
	table := summary.ForPkg(pass.Fset, pass.Pkg, pass.TypesInfo, pass.Files)

	decls := localDecls(pass)

	// Seed: operator entry points; then close over package-local callees.
	reachable := map[*types.Func]bool{}
	var queue []*types.Func
	for fn, fd := range decls {
		if fd.Recv != nil && (fn.Name() == "Next" && isRowSig(fn) || fn.Name() == "NextBatch" && isBatchSig(fn)) {
			reachable[fn] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range table.Callees(fn) {
			if callee.Pkg() != pass.Pkg || reachable[callee] {
				continue
			}
			if _, local := decls[callee]; !local {
				continue
			}
			reachable[callee] = true
			queue = append(queue, callee)
		}
	}

	for fn, fd := range decls {
		checkFunc(pass, ann, table, fd, reachable[fn])
	}
	return nil
}

// localDecls maps the package's functions to their declarations.
func localDecls(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, fd := range lintutil.FuncDecls(pass) {
		if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			decls[fn] = fd
		}
	}
	return decls
}

// isRowSig reports the operator row signature: (T, bool, error).
func isRowSig(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() != 3 {
		return false
	}
	if b, ok := res.At(1).Type().(*types.Basic); !ok || b.Kind() != types.Bool {
		return false
	}
	return lintutil.IsErrorType(res.At(2).Type())
}

// isBatchSig reports the operator batch signature: (T, error).
func isBatchSig(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	return res.Len() == 2 && lintutil.IsErrorType(res.At(1).Type())
}

// checkFunc checks the row loops of fd: its page loops, and when an operator
// entry point reaches fd (reached) its other row loops too.
func checkFunc(pass *analysis.Pass, ann *lintutil.Annotations, table *summary.Table, fd *ast.FuncDecl, reached bool) {
	if fd == nil || ann.Has(fd.Pos(), "gov-exempt") {
		return
	}
	lens, slots := pageLocals(pass, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		rowLoop := false
		switch x := n.(type) {
		case *ast.ForStmt:
			body = x.Body
			rowLoop = walksPage(pass, x.Init) || walksPage(pass, x.Cond) || walksPage(pass, body)
			rowLoop = rowLoop || uses(pass, x.Cond, lens) || uses(pass, x, slots)
			rowLoop = rowLoop || reached && pullsRows(pass, body)
		case *ast.RangeStmt:
			body = x.Body
			rowLoop = walksPage(pass, x.X) || walksPage(pass, body)
			rowLoop = rowLoop || uses(pass, x.X, lens) || uses(pass, x, slots)
			rowLoop = rowLoop || reached && (isBatchRows(pass, x.X) || pullsRows(pass, body))
		default:
			return true
		}
		if !rowLoop || hasCheckpoint(pass, table, body) {
			return true
		}
		if ann.Has(n.Pos(), "gov-exempt") {
			return true
		}
		pass.Reportf(n.Pos(),
			"row loop pulls tuples without a cancellation checkpoint: a canceled query keeps running through this loop; call tick()/Resources.Err() each iteration (or a helper that does) or annotate with //lint:gov-exempt")
		// Don't descend: one report covers the nested loops too.
		return false
	})
}

// walksPage reports whether n calls Len or Record on a Page, outside the
// function literals it holds: the mark of a loop over a scanned page's
// records.
func walksPage(pass *analysis.Pass, n ast.Node) bool {
	return callsPage(pass, n, "Len", "Record")
}

// callsPage reports whether n calls one of the methods names on a Page,
// outside the function literals it holds.
func callsPage(pass *analysis.Pass, n ast.Node, names ...string) bool {
	found := false
	if n != nil {
		ast.Inspect(n, func(n ast.Node) bool {
			if _, lit := n.(*ast.FuncLit); lit {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && !found {
				found = slices.Contains(names, lintutil.CalleeName(call)) && lintutil.ReceiverTypeName(pass.TypesInfo, call) == "Page"
			}
			return !found
		})
	}
	return found
}

// pageLocals returns the locals of body assigned from a Page: lens those
// assigned an expression that calls its Len, a loop bound; slots those
// assigned the slot array its Slots returns.
func pageLocals(pass *analysis.Pass, body *ast.BlockStmt) (lens, slots map[types.Object]bool) {
	lens, slots = map[types.Object]bool{}, map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok && lintutil.CalleeName(call) == "Slots" &&
				lintutil.ReceiverTypeName(pass.TypesInfo, call) == "Page" {
				addObj(pass, slots, as.Lhs[0])
			} else if i < len(as.Lhs) && callsPage(pass, rhs, "Len") {
				addObj(pass, lens, as.Lhs[i])
			}
		}
		return true
	})
	return lens, slots
}

// addObj adds the variable x names to set.
func addObj(pass *analysis.Pass, set map[types.Object]bool, x ast.Expr) {
	if id, ok := x.(*ast.Ident); ok {
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			set[obj] = true
		}
	}
}

// uses reports whether n refers to a variable of set.
func uses(pass *analysis.Pass, n ast.Node, set map[types.Object]bool) bool {
	found := false
	if n != nil && len(set) > 0 {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && set[pass.TypesInfo.Uses[id]] {
				found = true
			}
			return !found
		})
	}
	return found
}

// isBatchRows reports an expression of the form b.Rows with b a Batch (or a
// pointer to one): the rows of one vector flowing between operators.
func isBatchRows(pass *analysis.Pass, x ast.Expr) bool {
	sel, ok := x.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Rows" {
		return false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Batch"
}

// pullsRows reports whether the loop body calls a 3-result Next — the mark
// of unbounded, row-at-a-time work.
func pullsRows(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lintutil.CalleeName(call) != "Next" {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[call]; ok {
			if tup, ok := tv.Type.(*types.Tuple); ok && tup.Len() == 3 {
				found = true
			}
		}
		return true
	})
	return found
}

// hasCheckpoint reports whether the loop body reaches a cancellation
// checkpoint: tick(), Resources.Err(), or a summarized callee that
// transitively checkpoints.
func hasCheckpoint(pass *analysis.Pass, table *summary.Table, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := lintutil.CalleeName(call)
		if name == "tick" {
			found = true
			return true
		}
		if name == "Err" && lintutil.ReceiverTypeName(pass.TypesInfo, call) == "Resources" {
			found = true
			return true
		}
		if fn := lintutil.StaticCallee(pass.TypesInfo, call); fn != nil && table.Checkpoints(fn) {
			found = true
		}
		return true
	})
	return found
}
