// Package pinbalance checks buffer-pool pin discipline: every page handle
// obtained from Pool.Pin or Pool.NewPage must reach Unpin on every path of
// the acquiring function, escape to the caller (returned or stored), or be
// annotated //lint:pin-escapes where ownership deliberately transfers.
// Uses of a handle after a direct Unpin on the same path are also flagged —
// the frame may already hold a different page. Handles passed as call
// arguments are only borrowed by the callee (writeNode, readNode, ...): the
// Unpin duty stays with the caller.
package pinbalance

import (
	"go/ast"

	"github.com/mural-db/mural/internal/lint/analysis"
	"github.com/mural-db/mural/internal/lint/lifetime"
	"github.com/mural-db/mural/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "pinbalance",
	Doc:  "page handles from Pool.Pin/Pool.NewPage must be Unpinned on every path or escape via //lint:pin-escapes; no use after Unpin",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	ann := lintutil.CollectAnnotations(pass.Fset, pass.Files)
	lifetime.Check(pass, ann, lifetime.Spec{
		Noun: "pinned page handle",
		IsAcquire: func(pass *analysis.Pass, call *ast.CallExpr) bool {
			name := lintutil.CalleeName(call)
			if name != "Pin" && name != "NewPage" {
				return false
			}
			return lintutil.ReceiverTypeName(pass.TypesInfo, call) == "Pool"
		},
		ReleaseNames: []string{"Unpin"},
		Annotation:   "pin-escapes",
	})
	return nil
}
