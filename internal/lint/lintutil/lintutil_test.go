package lintutil

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const annotated = `package p

func a() {
	f() //lint:errdrop-ok the reason text is not part of the directive
	//lint:lock-held-io	tab-separated reason
	f()

	//lint:gov-exempt two lines above the call

	f()
	// lint:errdrop-ok a space after the slashes is prose, not a directive
	f()
}

func f() {}
`

// TestAnnotationsHas pins the grammar: a directive covers its own line and
// the line below it, ends at the first blank, and needs "//lint:" verbatim.
func TestAnnotationsHas(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", annotated, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	other, err := parser.ParseFile(fset, "q.go", annotated, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ann := CollectAnnotations(fset, []*ast.File{file})

	var calls []*ast.CallExpr
	ast.Inspect(file.Decls[0], func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	if len(calls) != 4 {
		t.Fatalf("want 4 calls in a, got %d", len(calls))
	}
	for _, tc := range []struct {
		call      int
		directive string
		want      bool
	}{
		{0, "errdrop-ok", true},    // same line, reason after a space
		{0, "lock-held-io", false}, // a directive is matched by kind
		{1, "lock-held-io", true},  // line above, reason after a tab
		{1, "errdrop-ok", false},   // two lines below its directive
		{2, "gov-exempt", false},   // two lines above is too far
		{3, "errdrop-ok", false},   // "// lint:" is not a directive
	} {
		if got := ann.Has(calls[tc.call].Pos(), tc.directive); got != tc.want {
			t.Errorf("call %d, %q: Has = %v, want %v", tc.call, tc.directive, got, tc.want)
		}
	}

	// The index is keyed by file: the same line of a file it did not scan
	// carries no directive.
	first := other.Decls[0].(*ast.FuncDecl).Body.List[0].Pos()
	if ann.Has(first, "errdrop-ok") {
		t.Errorf("a directive in p.go matched a position in q.go")
	}
}
