package summary

import (
	"go/ast"
	"go/types"
	"strings"
)

// Hot writes. A process-wide metric or any other package-level atomic is one
// cache line that every goroutine of the process shares; a function that
// writes it is cheap when called once per statement or per batch and a
// scalability bug when called once per row from parallel workers (the line
// ping-pongs between cores). The summary records the writes a function
// performs directly and, after Freeze, the ones it reaches through calls, so
// the hotmetric analyzer can ask "does anything this row loop calls write
// shared memory" across package boundaries.

// HotWrite is one (possibly transitive) write to a package-level atomic as
// seen by a caller.
type HotWrite struct {
	// What names the write: "storage.mPoolHits.Inc".
	What string
	// Via is the call chain from the summarized function to the write, empty
	// for a direct write.
	Via string
}

// maxHotWrites caps a function's transitive list; the first few name the
// problem.
const maxHotWrites = 4

// HotWrites returns the writes to package-level atomics fn performs,
// directly or through statically resolved callees. Sites and functions
// annotated //lint:hot-metric contribute nothing.
func (t *Table) HotWrites(fn *types.Func) []HotWrite {
	if f := t.Lookup(fn); f != nil {
		return f.effHot
	}
	return nil
}

// HotWriteOf classifies one call as a write to a package-level atomic: a
// mutating method of a metrics Counter/Gauge/Histogram or of a sync/atomic
// type, or a sync/atomic package function, whose target is rooted at a
// package-level variable.
func HotWriteOf(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	verb := sel.Sel.Name
	if s, ok := info.Selections[sel]; ok {
		recv := namedType(s.Recv())
		if recv == nil {
			return "", false
		}
		switch {
		case isOneOf(recv.Obj().Name(), "Counter", "Gauge", "Histogram") &&
			isOneOf(verb, "Inc", "Add", "Set", "Observe"):
		case namedTypePkgPath(recv) == "sync/atomic" && atomicMutator(verb):
		default:
			return "", false
		}
		if v := packageVar(info, sel.X); v != nil {
			return v.Pkg().Name() + "." + types.ExprString(sel.X) + "." + verb, true
		}
		return "", false
	}
	if !isPkgCall(info, call, "sync/atomic") || len(call.Args) == 0 || !atomicMutator(verb) {
		return "", false
	}
	if v := packageVar(info, call.Args[0]); v != nil {
		return v.Pkg().Name() + ": atomic." + verb + "(" + types.ExprString(call.Args[0]) + ")", true
	}
	return "", false
}

// atomicMutator reports whether a sync/atomic method (Add, Store, …) or
// function (AddInt64, StoreUint32, …) name writes its target.
func atomicMutator(name string) bool {
	for _, p := range []string{"Add", "Store", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// packageVar returns the package-level variable e is rooted at (through
// field selections, indexing, & and parentheses), or nil.
func packageVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			// pkg.Var is a qualified identifier, not a field selection.
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && isPackageLevel(v) {
				return v
			}
			e = x.X
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok && isPackageLevel(v) {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// hotClosure materializes the transitive hot writes of fn: its own plus its
// callees', each prefixed with the call chain. Functions whose declaration
// carries //lint:hot-metric contribute nothing.
func (t *Table) hotClosure(fi *FuncInfo, seen map[*FuncInfo]bool) []HotWrite {
	if fi.hotDone {
		return fi.effHot
	}
	if seen[fi] {
		return nil // break recursion cycles conservatively
	}
	seen[fi] = true
	var out []HotWrite
	add := func(w HotWrite) {
		for _, have := range out {
			if have.What == w.What {
				return
			}
		}
		if len(out) < maxHotWrites {
			out = append(out, w)
		}
	}
	if !fi.HotExempt {
		for _, w := range fi.HotWrites {
			add(w)
		}
		for _, op := range fi.Ops {
			if op.Kind != OpCall {
				continue
			}
			c := t.funcs[op.Callee]
			if c == nil {
				continue
			}
			for _, sub := range t.hotClosure(c, seen) {
				via := c.Name
				if sub.Via != "" {
					via = c.Name + " → " + sub.Via
				}
				add(HotWrite{What: sub.What, Via: via})
			}
		}
	}
	fi.effHot = out
	fi.hotDone = true
	return out
}
