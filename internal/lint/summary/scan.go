package summary

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"

	"github.com/mural-db/mural/internal/lint/lintutil"
)

// scanner walks one function body in source order, tracking the lock balance
// and collecting the function's direct facts.
type scanner struct {
	t    *Table
	info *types.Info
	fi   *FuncInfo
	dirs *lintutil.Annotations

	// held maps lock key -> balance. Positive: held; negative: released on
	// the caller's behalf.
	held map[Key]int
}

func (t *Table) scanFunc(info *types.Info, fd *ast.FuncDecl, obj *types.Func, dirs *lintutil.Annotations) *FuncInfo {
	fi := &FuncInfo{
		Name:     shortName(obj),
		Acquired: map[Key]bool{},
	}
	fi.Exempt = dirs.Has(fd.Pos(), "lock-held-io")
	fi.HandoffOK = dirs.Has(fd.Pos(), "lock-handoff")

	sig := obj.Type().(*types.Signature)
	s := &scanner{t: t, info: info, fi: fi, dirs: dirs, held: map[Key]int{}}

	s.stmts(fd.Body.List)
	s.scanAlwaysNil(fd, sig)
	return fi
}

// stmts walks a statement list, returning true when the list terminates the
// path (unconditional return / branch / terminal call).
func (s *scanner) stmts(list []ast.Stmt) bool {
	for _, st := range list {
		if s.stmt(st) {
			return true
		}
	}
	return false
}

// stmt walks one statement; true means the path terminates here.
func (s *scanner) stmt(st ast.Stmt) bool {
	switch t := st.(type) {
	case *ast.ReturnStmt:
		for _, r := range t.Results {
			s.expr(r, false)
		}
		return true

	case *ast.BranchStmt:
		// break/continue/goto all end the linear flow of this list.
		return true

	case *ast.BlockStmt:
		return s.stmts(t.List)

	case *ast.LabeledStmt:
		return s.stmt(t.Stmt)

	case *ast.IfStmt:
		if t.Init != nil {
			s.stmt(t.Init)
		}
		s.expr(t.Cond, false)
		saved := maps.Clone(s.held)
		thenTerm := s.stmts(t.Body.List)
		thenHeld := s.held
		s.held = maps.Clone(saved)
		elseTerm := false
		if t.Else != nil {
			elseTerm = s.stmt(t.Else)
		}
		elseHeld := s.held
		// A branch that terminates keeps its lock effects to itself (the
		// `if err { mu.Unlock(); return err }` shape); a falling branch
		// carries its effects forward. When both fall, prefer the then
		// branch (balanced code agrees on both).
		switch {
		case thenTerm && elseTerm:
			s.held = saved
			return true
		case thenTerm:
			s.held = elseHeld
		case elseTerm:
			s.held = thenHeld
		default:
			s.held = thenHeld
		}
		return false

	case *ast.ForStmt:
		if t.Init != nil {
			s.stmt(t.Init)
		}
		if t.Cond != nil {
			s.expr(t.Cond, false)
		}
		saved := maps.Clone(s.held)
		s.stmts(t.Body.List)
		if t.Post != nil {
			s.stmt(t.Post)
		}
		s.held = saved // loop bodies are assumed lock-balanced
		return false

	case *ast.RangeStmt:
		s.expr(t.X, false)
		saved := maps.Clone(s.held)
		s.stmts(t.Body.List)
		s.held = saved
		return false

	case *ast.SwitchStmt:
		if t.Init != nil {
			s.stmt(t.Init)
		}
		if t.Tag != nil {
			s.expr(t.Tag, false)
		}
		s.clauses(t.Body, false)
		return false

	case *ast.TypeSwitchStmt:
		if t.Init != nil {
			s.stmt(t.Init)
		}
		s.stmt(t.Assign)
		s.clauses(t.Body, false)
		return false

	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range t.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		// A select without default blocks until some comm is ready: its
		// channel operations are blocking ops.
		for _, cl := range t.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm != nil {
				if !hasDefault {
					what := "channel receive"
					if _, isSend := cc.Comm.(*ast.SendStmt); isSend {
						what = "channel send"
					}
					s.block(cc.Comm.Pos(), what)
				}
				// Fold non-channel effects (calls in the comm expr).
				s.commEffects(cc.Comm)
			}
			saved := maps.Clone(s.held)
			s.stmts(cc.Body)
			s.held = saved
		}
		return false

	case *ast.DeferStmt:
		// Deferred lock ops run at exit; they are not part of the linear
		// balance (a deferred Unlock keeps the lock held for the rest of the
		// body, which is exactly what callers of this scan need). Other
		// deferred effects (blocking calls) are folded at the defer site as
		// an approximation.
		s.deferredCall(t.Call)
		return false

	case *ast.GoStmt:
		// The goroutine's body runs concurrently: skip its effects, but
		// record the static callee for call-graph reachability (govcheck
		// follows worker launches).
		if fn := lintutil.StaticCallee(s.info, t.Call); fn != nil {
			s.fi.Ops = append(s.fi.Ops, Op{Pos: t.Call.Pos(), Kind: OpCall, Callee: fn})
		}
		for _, a := range t.Call.Args {
			s.expr(a, false)
		}
		return false

	case *ast.ExprStmt:
		s.expr(t.X, false)
		return lintutil.IsTerminalCall(t)

	case *ast.SendStmt:
		s.expr(t.Chan, false)
		s.expr(t.Value, false)
		s.block(t.Pos(), "channel send")
		return false

	case *ast.AssignStmt:
		for _, r := range t.Rhs {
			s.expr(r, false)
		}
		// `<-ch` on the RHS is a blocking receive.
		for _, r := range t.Rhs {
			if u, ok := r.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				s.block(u.Pos(), "channel receive")
			}
		}
		return false

	case *ast.DeclStmt, *ast.IncDecStmt, *ast.EmptyStmt:
		if gd, ok := st.(*ast.DeclStmt); ok {
			ast.Inspect(gd, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					s.expr(e, false)
					return false
				}
				return true
			})
		}
		return false

	default:
		return false
	}
}

// clauses walks switch clause bodies on copies of the lock state.
func (s *scanner) clauses(body *ast.BlockStmt, _ bool) {
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			s.expr(e, false)
		}
		saved := maps.Clone(s.held)
		s.stmts(cc.Body)
		s.held = saved
	}
}

// commEffects folds the call effects of a select communication statement
// (its channel op was already recorded).
func (s *scanner) commEffects(comm ast.Stmt) {
	switch c := comm.(type) {
	case *ast.SendStmt:
		s.expr(c.Chan, true)
		s.expr(c.Value, true)
	case *ast.AssignStmt:
		for _, r := range c.Rhs {
			s.expr(r, true)
		}
	case *ast.ExprStmt:
		s.expr(c.X, true)
	}
}

// deferredCall folds a deferred call's effects: lock ops are skipped, other
// effects apply with the lock state at the defer site.
func (s *scanner) deferredCall(call *ast.CallExpr) {
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok {
				if _, isLock := s.lockOp(inner); isLock {
					return false
				}
				s.callEffects(inner)
			}
			return true
		})
		return
	}
	if _, isLock := s.lockOp(call); isLock {
		return
	}
	s.callEffects(call)
	for _, a := range call.Args {
		s.expr(a, false)
	}
}

// expr walks one expression in evaluation order. insideComm suppresses
// re-recording channel ops already handled by the select scanner.
func (s *scanner) expr(e ast.Expr, insideComm bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			// Fold the literal's body at its definition point (it usually
			// runs here or shortly after); lock ops inside are still real.
			s.stmts(t.Body.List)
			return false
		case *ast.CallExpr:
			if key, isLock := s.lockOp(t); isLock {
				s.applyLock(t, key)
				return true
			}
			s.callEffects(t)
		case *ast.UnaryExpr:
			if t.Op == token.ARROW && !insideComm {
				s.block(t.Pos(), "channel receive")
			}
		}
		return true
	})
}

// callEffects records the non-lock effects of one call: blocking ops,
// static call sites, checkpoints, engine-specific verbs.
func (s *scanner) callEffects(call *ast.CallExpr) {
	name := lintutil.CalleeName(call)
	fn := lintutil.StaticCallee(s.info, call)

	if what, ok := s.blockingCall(call, name); ok {
		s.block(call.Pos(), what)
	} else if fn != nil {
		s.fi.Ops = append(s.fi.Ops, Op{
			Pos: call.Pos(), Kind: OpCall, Callee: fn,
			Held: s.heldKeys(), Released: s.releasedKeys(),
		})
		if held := s.heldKeys(); len(held) > 0 {
			s.t.pendingEdges = append(s.t.pendingEdges,
				pendingEdge{held: held, callee: fn, pos: call.Pos()})
		}
	}

	// Checkpoint verbs: evaluator.tick() or Resources.Err().
	if name == "tick" || (name == "Err" && lintutil.ReceiverTypeName(s.info, call) == "Resources") {
		s.fi.Checkpoint = true
	}
	// WAL batch commit/abort verbs (mirrors the walorder release set).
	switch name {
	case "AbortBatch", "commitBatch", "commitDDL", "commitGrouped", "rollbackBatch":
		s.fi.CommitsBatch = true
	}

}

// block records one blocking operation at pos with the current lock
// snapshot, unless the site carries //lint:lock-held-io (an audited site is
// neither reported locally nor propagated to callers).
func (s *scanner) block(pos token.Pos, what string) {
	if s.dirs.Has(pos, "lock-held-io") {
		return
	}
	s.fi.Ops = append(s.fi.Ops, Op{
		Pos: pos, Kind: OpBlock, What: what,
		Held: s.heldKeys(), Released: s.releasedKeys(),
	})
}

// blockingCall classifies a call as a blocking operation.
func (s *scanner) blockingCall(call *ast.CallExpr, name string) (string, bool) {
	switch name {
	case "Sync":
		// f.Sync() — fsync on files and file-like devices. Method calls only.
		if _, ok := call.Fun.(*ast.SelectorExpr); ok && len(call.Args) == 0 {
			return "fsync (Sync)", true
		}
	case "Wait":
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		// sync.Cond.Wait atomically unlocks its mutex: not a blocking op for
		// lock-scope purposes.
		if tv, ok := s.info.Types[sel.X]; ok && lintutil.TypeName(tv.Type) == "Cond" && namedTypePkgPath(tv.Type) == "sync" {
			return "", false
		}
		return "Wait", true
	case "Sleep":
		if isPkgCall(s.info, call, "time") {
			return "time.Sleep", true
		}
	case "Read", "Write":
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		if tv, ok := s.info.Types[sel.X]; ok && namedTypePkgPath(tv.Type) == "net" {
			return "network I/O", true
		}
	}
	return "", false
}

// lockOp classifies a call as a sync.Mutex/RWMutex lock operation and
// returns the lock key.
func (s *scanner) lockOp(call *ast.CallExpr) (Key, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", false
	}
	selection, ok := s.info.Selections[sel]
	if !ok {
		return "", false
	}
	m, ok := selection.Obj().(*types.Func)
	if !ok || m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return "", false
	}
	return s.lockKey(sel.X), true
}

// applyLock updates the lock balance for one lock call.
func (s *scanner) applyLock(call *ast.CallExpr, key Key) {
	sel := call.Fun.(*ast.SelectorExpr)
	switch sel.Sel.Name {
	case "Lock", "RLock":
		// Record ordering edges: key acquired while others are held.
		if !isLocalKey(key) {
			for k, n := range s.held {
				if n > 0 && k != key && !isLocalKey(k) {
					s.t.edges = append(s.t.edges, OrderEdge{From: k, To: key, Pos: call.Pos()})
				}
			}
		}
		s.held[key]++
		s.fi.Acquired[key] = true
	case "Unlock", "RUnlock":
		s.held[key]--
		if s.held[key] < 0 {
			found := false
			for _, k := range s.fi.HandedOff {
				if k == key {
					found = true
				}
			}
			if !found {
				s.fi.HandedOff = append(s.fi.HandedOff, key)
				if s.fi.HandoffPos == token.NoPos {
					s.fi.HandoffPos = call.Pos()
				}
			}
		}
	}
}

// lockKey derives a type-granular key for the mutex expression.
func (s *scanner) lockKey(x ast.Expr) Key {
	for {
		if p, ok := x.(*ast.ParenExpr); ok {
			x = p.X
			continue
		}
		break
	}
	switch e := x.(type) {
	case *ast.SelectorExpr:
		// owner.field — key on the owner's named type.
		if tv, ok := s.info.Types[e.X]; ok {
			if tn := lintutil.TypeName(tv.Type); tn != "" {
				return Key(namedTypePkgName(tv.Type) + "." + tn + "." + e.Sel.Name)
			}
		}
		// pkg.Var package-level mutex.
		if id, ok := e.X.(*ast.Ident); ok {
			if pn, ok := s.info.Uses[id].(*types.PkgName); ok {
				return Key(pn.Imported().Name() + "." + e.Sel.Name)
			}
		}
		return Key("expr." + e.Sel.Name)
	case *ast.Ident:
		obj := s.info.ObjectOf(e)
		if obj == nil {
			return Key("local:" + e.Name)
		}
		// A struct with an embedded mutex: key on the struct type.
		if tn := lintutil.TypeName(obj.Type()); tn != "" && tn != "Mutex" && tn != "RWMutex" {
			return Key(namedTypePkgName(obj.Type()) + "." + tn)
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return Key(v.Pkg().Name() + "." + v.Name())
		}
		return Key("local:" + e.Name)
	default:
		return Key("local:?")
	}
}

func isLocalKey(k Key) bool {
	return len(k) >= 6 && k[:6] == "local:"
}

func (s *scanner) heldKeys() []Key {
	var out []Key
	for k, n := range s.held {
		if n > 0 {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *scanner) releasedKeys() []Key {
	var out []Key
	for k, n := range s.held {
		if n < 0 {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scanAlwaysNil decides whether every return's error slot is provably nil
// (directly, or via a callee resolved at Freeze).
func (s *scanner) scanAlwaysNil(fd *ast.FuncDecl, sig *types.Signature) {
	res := sig.Results()
	if res.Len() == 0 {
		return
	}
	last := res.At(res.Len() - 1).Type()
	if !types.Identical(last, types.Universe.Lookup("error").Type()) {
		return
	}
	candidate := true
	var deps []*types.Func
	var walk func(list []ast.Stmt)
	walk = func(list []ast.Stmt) {
		for _, st := range list {
			ast.Inspect(st, func(n ast.Node) bool {
				switch t := n.(type) {
				case *ast.FuncLit:
					return false // returns inside literals are not ours
				case *ast.ReturnStmt:
					if len(t.Results) == 0 {
						candidate = false // named results: give up
						return true
					}
					lastExpr := t.Results[len(t.Results)-1]
					if len(t.Results) == 1 && res.Len() > 1 {
						// return f() forwarding all results.
						if call, ok := lastExpr.(*ast.CallExpr); ok {
							if fn := lintutil.StaticCallee(s.info, call); fn != nil {
								deps = append(deps, fn)
								return true
							}
						}
						candidate = false
						return true
					}
					if id, ok := lastExpr.(*ast.Ident); ok && id.Name == "nil" {
						return true
					}
					if call, ok := lastExpr.(*ast.CallExpr); ok {
						if fn := lintutil.StaticCallee(s.info, call); fn != nil {
							deps = append(deps, fn)
							return true
						}
					}
					candidate = false
				}
				return true
			})
		}
	}
	walk(fd.Body.List)
	s.fi.nilCandidate = candidate
	s.fi.errDeps = deps
}

func namedTypePkgPath(t types.Type) string {
	if n := lintutil.NamedType(t); n != nil && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path()
	}
	return ""
}

func namedTypePkgName(t types.Type) string {
	if n := lintutil.NamedType(t); n != nil && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Name()
	}
	return "?"
}

func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if f, ok := info.Uses[sel.Sel].(*types.Func); ok && f.Pkg() != nil {
		return f.Pkg().Path() == pkgPath
	}
	return false
}

// shortName renders "Recv.Method" or "pkg.Func" for diagnostics.
func shortName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if tn := lintutil.TypeName(sig.Recv().Type()); tn != "" {
			return tn + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
