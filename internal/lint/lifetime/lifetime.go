// Package lifetime implements the shared path-sensitive "acquire/release"
// analysis under the pinbalance and walorder analyzers: a value
// acquired in a function must, on every path from the acquisition to a
// function exit or to the end of the variable's scope, be released, escape
// to the caller, or be covered by a registered defer.
//
// The walker interprets Go's structured control flow directly (if/for/
// range/switch/select, break/continue, defer, panic) instead of building a
// CFG; functions using goto or labeled branches are skipped conservatively.
// The error-guard idiom is understood: on the path where the acquisition's
// own error variable is non-nil, there is nothing to release.
package lifetime

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"github.com/mural-db/mural/internal/lint/analysis"
	"github.com/mural-db/mural/internal/lint/lintutil"
)

// Spec configures one resource discipline.
type Spec struct {
	// Noun names the resource in diagnostics ("pinned page", "iterator").
	Noun string
	// IsAcquire reports whether the call acquires a resource.
	IsAcquire func(pass *analysis.Pass, call *ast.CallExpr) bool
	// ReleaseNames are the method names on the resource that release it; for
	// a Valueless resource, the callee names that do.
	ReleaseNames []string
	// Annotation suppresses a finding at the acquisition site.
	Annotation string
	// Valueless tracks a resource with no variable (an open WAL batch): the
	// acquisition is the call itself and releases match by callee name only.
	Valueless bool
	// IsReleaseCall, when set, additionally classifies calls as releases of a
	// Valueless resource: walorder consults callee summaries with it (a
	// helper that transitively commits the batch).
	IsReleaseCall func(pass *analysis.Pass, call *ast.CallExpr) bool
}

// Check runs the discipline over every function of the pass.
func Check(pass *analysis.Pass, ann *lintutil.Annotations, spec Spec) {
	for _, fd := range lintutil.FuncDecls(pass) {
		if hasIrreducibleFlow(fd.Body) {
			continue // goto or labeled branch: skip conservatively
		}
		checkFunc(pass, ann, spec, fd)
	}
}

// acquisition is one tracked acquire site.
type acquisition struct {
	call *ast.CallExpr
	// v is the resource variable (nil for valueless resources).
	v types.Object
	// errObj is the error variable assigned alongside v (nil if none).
	errObj types.Object
}

// state is the abstract state along one path.
type state struct {
	released bool
	// directRelease marks a non-deferred release (enables use-after checks).
	directRelease bool
	releasePos    token.Pos
	// errLive: the acquisition's error variable still holds this
	// acquisition's error (no intervening reassignment), so an exit under
	// an err-test is the failure path and needs no release.
	errLive bool
}

type checker struct {
	pass *analysis.Pass
	spec Spec
	acq  acquisition
	// reported stops the walk after the first finding for this acquisition.
	reported bool
}

func checkFunc(pass *analysis.Pass, ann *lintutil.Annotations, spec Spec, fd *ast.FuncDecl) {
	// Find acquisition statements with their defining sequence.
	var walkSeqs func(stmts []ast.Stmt)
	walkSeqs = func(stmts []ast.Stmt) {
		for i, s := range stmts {
			var defining []ast.Stmt
			a, ok := matchAcquire(pass, spec, s)
			if ok {
				defining = stmts[i+1:]
			} else if ifs, isIf := s.(*ast.IfStmt); isIf && ifs.Init != nil {
				// `if err := acquire(); err ... { ... }`: the acquisition's
				// defining sequence is the if itself (minus its init, which
				// the matcher consumed) plus the rest of the outer sequence.
				if a, ok = matchAcquire(pass, spec, ifs.Init); ok {
					cp := *ifs
					cp.Init = nil
					defining = append([]ast.Stmt{&cp}, stmts[i+1:]...)
				}
			}
			if ok {
				if !ann.Has(a.call.Pos(), spec.Annotation) {
					c := &checker{pass: pass, spec: spec, acq: a}
					st := state{errLive: a.errObj != nil}
					out := c.seq(defining, st)
					if out.falls && !out.st.released && !c.reported {
						c.leak(end(stmts), "end of the variable's scope")
					}
				}
			}
			// Recurse into nested sequences to find acquisitions there.
			ast.Inspect(s, func(n ast.Node) bool {
				if b, ok := n.(*ast.BlockStmt); ok {
					walkSeqs(b.List)
					return false
				}
				if cc, ok := n.(*ast.CaseClause); ok {
					walkSeqs(cc.Body)
					return false
				}
				if cc, ok := n.(*ast.CommClause); ok {
					walkSeqs(cc.Body)
					return false
				}
				return true
			})
		}
	}
	walkSeqs(fd.Body.List)
}

// matchAcquire recognizes `v, err := acquire(...)` (and the valueless bare
// `acquire(...)` / `err := acquire(...)` forms for Valueless specs).
func matchAcquire(pass *analysis.Pass, spec Spec, s ast.Stmt) (acquisition, bool) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		if len(st.Rhs) != 1 {
			return acquisition{}, false
		}
		call, ok := st.Rhs[0].(*ast.CallExpr)
		if !ok || !spec.IsAcquire(pass, call) {
			return acquisition{}, false
		}
		a := acquisition{call: call}
		for i, lhs := range st.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				return acquisition{}, false
			}
			obj := pass.TypesInfo.ObjectOf(id)
			if i == 0 && !spec.Valueless {
				if id.Name == "_" {
					// Result discarded outright: immediate leak.
					pass.Reportf(call.Pos(), "result of %s (a %s) is discarded without release",
						lintutil.CalleeName(call), spec.Noun)
					return acquisition{}, false
				}
				a.v = obj
			} else if obj != nil && lintutil.IsErrorType(obj.Type()) {
				a.errObj = obj
			}
		}
		if a.v == nil && !spec.Valueless {
			return acquisition{}, false
		}
		// Only track short declarations: plain `=` re-binding an outer
		// variable makes the scope-end rule unsound.
		if st.Tok != token.DEFINE && !spec.Valueless {
			return acquisition{}, false
		}
		return a, true
	case *ast.ExprStmt:
		if !spec.Valueless {
			return acquisition{}, false
		}
		call, ok := st.X.(*ast.CallExpr)
		if !ok || !spec.IsAcquire(pass, call) {
			return acquisition{}, false
		}
		return acquisition{call: call}, true
	}
	return acquisition{}, false
}

// outcome summarizes simulating a statement sequence.
type outcome struct {
	// falls reports that some path reaches the end of the sequence.
	falls bool
	// st is the merged state of the falling paths.
	st state
	// brk/cont report an unlabeled break/continue escaping the sequence.
	brk, cont bool
	brkSt     state
}

func (c *checker) seq(stmts []ast.Stmt, st state) outcome {
	for _, s := range stmts {
		if c.reported {
			return outcome{}
		}
		o := c.stmt(s, st)
		if o.brk || o.cont {
			// Propagate upward; statements after an unconditional branch
			// are unreachable.
			if !o.falls {
				return o
			}
			// Conditional branch inside s (e.g. an if with a break): the
			// break escapes this sequence too.
			rest := c.seq(remaining(stmts, s), o.st)
			rest.brk = rest.brk || o.brk
			rest.cont = rest.cont || o.cont
			rest.brkSt = o.brkSt
			return rest
		}
		if !o.falls {
			return outcome{}
		}
		st = o.st
	}
	return outcome{falls: true, st: st}
}

func remaining(stmts []ast.Stmt, after ast.Stmt) []ast.Stmt {
	for i, s := range stmts {
		if s == after {
			return stmts[i+1:]
		}
	}
	return nil
}

// stmt simulates one statement.
func (c *checker) stmt(s ast.Stmt, st state) outcome {
	switch t := s.(type) {
	case *ast.ReturnStmt:
		c.exit(t, t.Results, st)
		return outcome{}

	case *ast.BranchStmt:
		switch t.Tok {
		case token.BREAK:
			return outcome{brk: true, brkSt: st}
		case token.CONTINUE:
			return outcome{cont: true, brkSt: st}
		}
		return outcome{} // goto/fallthrough filtered earlier

	case *ast.ExprStmt:
		if lintutil.IsTerminalCall(s) {
			return outcome{} // panic/Exit: path ends without leak
		}
		return outcome{falls: true, st: c.effects(s, st)}

	case *ast.DeferStmt:
		if c.releasesIn(t.Call) || c.releasesInClosure(t.Call) {
			st.released = true
			// A deferred release is not a direct one: later uses are fine.
			st.directRelease = false
			return outcome{falls: true, st: st}
		}
		return outcome{falls: true, st: c.effects(s, st)}

	case *ast.GoStmt:
		return outcome{falls: true, st: c.effects(s, st)}

	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.EmptyStmt, *ast.LabeledStmt:
		if ls, ok := s.(*ast.LabeledStmt); ok {
			return c.stmt(ls.Stmt, st)
		}
		return outcome{falls: true, st: c.effects(s, st)}

	case *ast.BlockStmt:
		return c.seq(t.List, st)

	case *ast.IfStmt:
		if t.Init != nil {
			st = c.effects(t.Init, st)
		}
		st = c.effects(&ast.ExprStmt{X: t.Cond}, st)
		isTest, failureIsThen := c.isErrTest(t.Cond, st)
		thenSt, elseSt := st, st
		if isTest {
			// On the failure branch the acquisition never happened:
			// nothing to release there.
			if failureIsThen {
				thenSt.released = true
				thenSt.directRelease = false
			} else {
				elseSt.released = true
				elseSt.directRelease = false
			}
		}
		thenOut := c.seq(t.Body.List, thenSt)
		var elseOut outcome
		if t.Else != nil {
			elseOut = c.stmt(t.Else, elseSt)
		} else {
			elseOut = outcome{falls: true, st: elseSt}
		}
		return mergeBranches(thenOut, elseOut)

	case *ast.ForStmt:
		if t.Init != nil {
			st = c.effects(t.Init, st)
		}
		bodyOut := c.seq(t.Body.List, st)
		if t.Post != nil {
			_ = c.effects(t.Post, st)
		}
		falls := t.Cond != nil || bodyOut.brk
		// After the loop, conservatively keep the entry state: the body may
		// run zero times (or break out before releasing).
		after := st
		if bodyOut.brk {
			after = mergeState(after, bodyOut.brkSt)
		}
		if t.Cond == nil && !bodyOut.brk {
			// for{} without break: never falls through.
			return outcome{}
		}
		// A continue at body level is consumed by the loop; a leak on the
		// next iteration is caught by the end-of-body fall-through check
		// when the acquisition is inside the body (handled separately,
		// since then the loop body IS the defining sequence).
		return outcome{falls: falls, st: after}

	case *ast.RangeStmt:
		st = c.effects(&ast.ExprStmt{X: t.X}, st)
		bodyOut := c.seq(t.Body.List, st)
		after := st
		if bodyOut.brk {
			after = mergeState(after, bodyOut.brkSt)
		}
		return outcome{falls: true, st: after}

	case *ast.SwitchStmt:
		if t.Init != nil {
			st = c.effects(t.Init, st)
		}
		if t.Tag != nil {
			st = c.effects(&ast.ExprStmt{X: t.Tag}, st)
		}
		return c.clauses(t.Body, st)

	case *ast.TypeSwitchStmt:
		if t.Init != nil {
			st = c.effects(t.Init, st)
		}
		st = c.effects(t.Assign, st)
		return c.clauses(t.Body, st)

	case *ast.SelectStmt:
		return c.clauses(t.Body, st)

	default:
		return outcome{falls: true, st: c.effects(s, st)}
	}
}

// clauses simulates a switch/select body and merges the per-clause results.
func (c *checker) clauses(body *ast.BlockStmt, st state) outcome {
	var outs []outcome
	hasDefault := false
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cc := cl.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			} else {
				st = c.effects(cc.Comm, st)
			}
			stmts = cc.Body
		}
		outs = append(outs, c.seq(stmts, st))
	}
	if !hasDefault {
		outs = append(outs, outcome{falls: true, st: st})
	}
	merged := outcome{}
	for _, o := range outs {
		merged = mergeBranches(merged, o)
	}
	// A break at clause level exits the switch: it becomes a fall-through.
	if merged.brk {
		merged.falls = true
		merged.st = mergeState(merged.st, merged.brkSt)
		merged.brk = false
	}
	return merged
}

func mergeBranches(a, b outcome) outcome {
	out := outcome{
		brk:  a.brk || b.brk,
		cont: a.cont || b.cont,
	}
	switch {
	case a.falls && b.falls:
		out.falls = true
		out.st = mergeState(a.st, b.st)
	case a.falls:
		out.falls = true
		out.st = a.st
	case b.falls:
		out.falls = true
		out.st = b.st
	}
	if a.brk || a.cont {
		out.brkSt = a.brkSt
	} else {
		out.brkSt = b.brkSt
	}
	return out
}

func mergeState(a, b state) state {
	return state{
		released:      a.released && b.released,
		directRelease: a.directRelease && b.directRelease,
		releasePos:    a.releasePos,
		errLive:       a.errLive && b.errLive,
	}
}

// exit checks one function-exit point (a return statement).
func (c *checker) exit(at ast.Node, results []ast.Expr, st state) {
	if c.reported || st.released {
		return
	}
	for _, r := range results {
		if c.usesV(r) || c.releasesInExpr(r) {
			return // returned to the caller, or released in the return expr
		}
	}
	c.leak(at.Pos(), "this return")
}

func (c *checker) leak(pos token.Pos, where string) {
	c.reported = true
	p := c.pass.Position(pos)
	c.pass.Reportf(c.acq.call.Pos(),
		"%s acquired by %s is not released on every path: leaks at %s (line %d); release it, return it, or annotate with //lint:%s",
		c.spec.Noun, lintutil.CalleeName(c.acq.call), where, p.Line, c.spec.Annotation)
}

// effects folds one statement's releases, escapes, error-variable
// reassignments and use-after-release checks into the state.
func (c *checker) effects(s ast.Stmt, st state) state {
	released := false
	escaped := false
	usedV := false

	ast.Inspect(s, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.CallExpr:
			if c.releasesIn(t) {
				released = true
				return false // don't treat the receiver as a plain use
			}
		case *ast.CompositeLit:
			for _, el := range t.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if c.usesV(e) {
					escaped = true
				}
			}
		case *ast.UnaryExpr:
			if t.Op == token.AND && c.usesV(t.X) {
				escaped = true
			}
		case *ast.AssignStmt:
			for i, r := range t.Rhs {
				if !c.usesVDirect(r) {
					continue
				}
				// Storing or aliasing v discharges the duty — but `_ = v`
				// stores nothing and must not suppress the check.
				if len(t.Lhs) != len(t.Rhs) || !isBlank(t.Lhs[i]) {
					escaped = true
				}
			}
			for _, l := range t.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					obj := c.pass.TypesInfo.ObjectOf(id)
					if obj != nil && obj == c.acq.errObj {
						st.errLive = false // error variable reassigned
					}
					if obj != nil && c.acq.v != nil && obj == c.acq.v {
						// Resource variable rebound: stop tracking safely.
						released = true
					}
				}
			}
		case *ast.SendStmt:
			if c.usesV(t.Value) {
				escaped = true
			}
		case *ast.Ident:
			if c.acq.v != nil && c.pass.TypesInfo.ObjectOf(t) == c.acq.v {
				usedV = true
			}
		}
		return true
	})

	if usedV && !released && !escaped &&
		st.released && st.directRelease && !c.reported {
		c.reported = true
		rp := c.pass.Position(st.releasePos)
		c.pass.Reportf(s.Pos(), "use of %s after its release at line %d", c.spec.Noun, rp.Line)
	}
	if released {
		st.released = true
		st.directRelease = true
		st.releasePos = s.Pos()
	}
	if escaped {
		st.released = true
		st.directRelease = false
	}
	return st
}

// releasesIn reports whether the call releases the tracked resource:
// v.Release(...) for variable resources, or a callee-name match for
// valueless ones.
func (c *checker) releasesIn(call *ast.CallExpr) bool {
	named := slices.Contains(c.spec.ReleaseNames, lintutil.CalleeName(call))
	if c.spec.Valueless {
		// Summary-driven: a helper that transitively performs the release.
		return named || c.spec.IsReleaseCall != nil && c.spec.IsReleaseCall(c.pass, call)
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return named && ok && c.usesVDirect(sel.X)
}

// releasesInClosure reports a release inside a func literal (the
// `defer func() { _ = v.Close() }()` idiom).
func (c *checker) releasesInClosure(call *ast.CallExpr) bool {
	fl, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.CallExpr); ok && c.releasesIn(inner) {
			found = true
		}
		return true
	})
	return found
}

// releasesInExpr finds a release call anywhere under e (for
// `return v.Close()`).
func (c *checker) releasesInExpr(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && c.releasesIn(call) {
			found = true
		}
		return true
	})
	return found
}

// usesV reports whether e mentions the resource variable anywhere.
func (c *checker) usesV(e ast.Expr) bool {
	if c.acq.v == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.pass.TypesInfo.ObjectOf(id) == c.acq.v {
			found = true
		}
		return true
	})
	return found
}

// usesVDirect reports whether e IS the resource variable (possibly
// parenthesized), not merely an expression containing it.
func (c *checker) usesVDirect(e ast.Expr) bool {
	if c.acq.v == nil {
		return false
	}
	for {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
			continue
		}
		break
	}
	id, ok := e.(*ast.Ident)
	return ok && c.pass.TypesInfo.ObjectOf(id) == c.acq.v
}

// isErrTest reports whether cond tests the acquisition's error variable
// while it still holds this acquisition's error (`err != nil` or
// `err == nil`), and which branch is the failure branch: the then branch
// for !=, the else branch for ==.
func (c *checker) isErrTest(cond ast.Expr, st state) (isTest, failureIsThen bool) {
	if c.acq.errObj == nil || !st.errLive {
		return false, false
	}
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return false, false
	}
	if !isNilIdent(be.X) && !isNilIdent(be.Y) {
		return false, false
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		if id, ok := side.(*ast.Ident); ok {
			obj := c.pass.TypesInfo.ObjectOf(id)
			if obj != nil && obj == c.acq.errObj {
				return true, be.Op == token.NEQ
			}
		}
	}
	return false, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// hasIrreducibleFlow reports goto statements or labeled break/continue,
// which the structured walker does not model.
func hasIrreducibleFlow(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok {
			if b.Tok == token.GOTO || b.Label != nil {
				found = true
			}
		}
		return true
	})
	return found
}

// end returns the position of the last statement of a sequence.
func end(stmts []ast.Stmt) token.Pos {
	if len(stmts) == 0 {
		return token.NoPos
	}
	return stmts[len(stmts)-1].End()
}
