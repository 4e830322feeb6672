// Package iterclose checks iterator discipline: any value with a Next or
// NextBatch method and a Close() error method obtained from a call must have Close
// called on every path, be handed off (returned, stored, or passed to a
// wrapping constructor — composite iterators take ownership of their
// children), be drained by a call that closes internally (Cursor.All), or
// be annotated //lint:iter-escapes.
//
// Interprocedural: when the callee of a hand-off is summarized, the summary
// decides the iterator's fate — a helper that Closes its parameter releases
// it, one that stores it takes ownership, and one that merely borrows it
// (drains without closing) leaves the Close duty with the caller, which the
// intraprocedural check would otherwise miss. Unknown callees (interface
// methods, other modules) keep the permissive hand-off reading.
package iterclose

import (
	"go/ast"
	"go/types"

	"github.com/mural-db/mural/internal/lint/analysis"
	"github.com/mural-db/mural/internal/lint/lifetime"
	"github.com/mural-db/mural/internal/lint/lintutil"
	"github.com/mural-db/mural/internal/lint/summary"
)

var Analyzer = &analysis.Analyzer{
	Name: "iterclose",
	Doc:  "iterators (values with Next or NextBatch and Close() error methods) must be Closed on every path, handed off, or annotated //lint:iter-escapes",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	ann := lintutil.CollectAnnotations(pass)
	table := summary.ForPkg(pass.Fset, pass.Pkg, pass.TypesInfo, pass.Files)
	lifetime.Check(pass, ann, lifetime.Spec{
		Noun:      "iterator",
		IsAcquire: isIterAcquire,
		// All drains a cursor to completion and closes it internally.
		ReleaseNames: []string{"Close", "All"},
		// Constructors like newNLJoin(left, right) take ownership of their
		// child iterators: passing one as an argument is a hand-off — but
		// when the callee is summarized, believe the summary instead (a
		// borrowing helper leaves the Close duty here).
		ArgsEscape: true,
		Annotation: "iter-escapes",
		ArgFate: func(pass *analysis.Pass, call *ast.CallExpr, argIdx int) summary.ParamFate {
			return table.ArgFate(lintutil.StaticCallee(pass.TypesInfo, call), argIdx)
		},
	})
	return nil
}

// isIterAcquire reports calls whose first result is an iterator: its method
// set contains Next (the row face) or NextBatch (an operator) and Close, with
// Close returning exactly one error.
func isIterAcquire(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	t := tv.Type
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(0).Type()
	}
	if t == nil || !hasCloseError(t) {
		return false
	}
	return lintutil.HasMethod(t, "Next") || lintutil.HasMethod(t, "NextBatch")
}

func hasCloseError(t types.Type) bool {
	for _, mt := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(mt)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i)
			if m.Obj().Name() != "Close" {
				continue
			}
			sig, ok := m.Type().(*types.Signature)
			if !ok {
				continue
			}
			if sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
				lintutil.IsErrorType(sig.Results().At(0).Type()) {
				return true
			}
		}
		if _, isPtr := t.(*types.Pointer); isPtr {
			break
		}
	}
	return false
}
