// Package lintutil holds the shared plumbing of the murallint analyzers:
// the //lint: annotation grammar and small AST/type helpers.
//
// Annotation grammar. A directive is a comment of the form
//
//	//lint:<directive>[ <reason>]
//
// placed either at the end of the statement it applies to or alone on the
// line immediately above it. Directives recognized by the suite:
//
//	//lint:pin-escapes   — pinbalance: this Pin/NewPage handle deliberately
//	                       outlives the function (ownership is transferred).
//	//lint:errdrop-ok    — errdrop: discarding this error is intentional.
//	//lint:wal-exempt    — walorder: this page write is exempt from the
//	                       log-before-write discipline (e.g. it IS the
//	                       logging path).
//	//lint:lock-handoff  — lockscope: this function intentionally releases a
//	                       mutex its caller holds (the group-commit wait
//	                       idiom); placed on the function declaration.
//	//lint:lock-held-io  — lockscope: this blocking operation under a lock
//	                       is audited and intentional. On a call/operation
//	                       site it exempts that site; on a function
//	                       declaration it exempts the whole function and
//	                       stops its blocking effects from propagating to
//	                       callers.
//	//lint:gov-exempt    — govcheck: this row loop intentionally runs
//	                       without a cancellation checkpoint.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"github.com/mural-db/mural/internal/lint/analysis"
)

// Annotations indexes every //lint: directive of a package by file and line.
type Annotations struct {
	fset   *token.FileSet
	byLine map[fileLine][]string
}

type fileLine struct {
	file string
	line int
}

// CollectAnnotations scans files for //lint: directives.
func CollectAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{fset: fset, byLine: make(map[fileLine][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				directive, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				if i := strings.IndexAny(directive, " \t"); i >= 0 {
					directive = directive[:i]
				}
				p := fset.Position(c.Pos())
				key := fileLine{p.Filename, p.Line}
				a.byLine[key] = append(a.byLine[key], directive)
			}
		}
	}
	return a
}

// Has reports whether the directive annotates pos: same line, or alone on
// the line directly above.
func (a *Annotations) Has(pos token.Pos, directive string) bool {
	p := a.fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		if slices.Contains(a.byLine[fileLine{p.Filename, line}], directive) {
			return true
		}
	}
	return false
}

// NamedType returns the defined (named) type under t, unwrapping pointers,
// or nil.
func NamedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// TypeName returns the bare name of the defined type under t ("" if none).
func TypeName(t types.Type) string {
	if n := NamedType(t); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// ReceiverTypeName returns the name of the defined type on which the called
// method is declared, for a call of the form x.M(...) ("" when the call is
// not a method call on a defined type).
func ReceiverTypeName(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s, ok := info.Selections[sel]
	if !ok {
		return "" // package-qualified function, not a method
	}
	return TypeName(s.Recv())
}

// CalleeName returns the bare name of the called function or method
// ("" for indirect calls through non-selector expressions).
func CalleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// StaticCallee resolves a call to the concrete *types.Func it invokes, or
// nil for dynamic dispatch (interface methods, func values, builtins).
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, ok := sel.Obj().(*types.Func)
			if !ok || types.IsInterface(sel.Recv()) {
				return nil
			}
			return f
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// IsErrorType reports whether t is the predeclared error interface.
func IsErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// FuncDecls yields every function declaration with a body in the pass.
func FuncDecls(pass *analysis.Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// IsTerminalCall reports whether the statement unconditionally ends the
// path: panic(...), os.Exit(...), log.Fatal*(...), runtime.Goexit(),
// t.Fatal*(...).
func IsTerminalCall(stmt ast.Stmt) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch name := CalleeName(call); name {
	case "panic", "Exit", "Goexit":
		return true
	case "Fatal", "Fatalf", "Fatalln":
		return true
	}
	return false
}
