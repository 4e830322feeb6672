package summary

import (
	"go/types"
	"sort"
)

// Freeze closes the direct per-function facts over the call graph: boolean
// effects (checkpoint, batch commit) propagate from callees to callers,
// AlwaysNil resolves its callee dependencies, transitive blocking-op lists
// are materialized, and pending under-lock call sites become
// acquisition-order edges. After Freeze the table is read-only.
func (t *Table) Freeze() {
	if t.frozen {
		return
	}

	// 1. Boolean effect fixpoints (monotone, false -> true only).
	for changed := true; changed; {
		changed = false
		for _, fi := range t.funcs {
			for _, op := range fi.Ops {
				if op.Kind != OpCall {
					continue
				}
				c := t.funcs[op.Callee]
				if c == nil {
					continue
				}
				if c.Checkpoint && !fi.Checkpoint {
					fi.Checkpoint = true
					changed = true
				}
				if c.CommitsBatch && !fi.CommitsBatch {
					fi.CommitsBatch = true
					changed = true
				}
			}
		}
	}

	// 2. AlwaysNil: a candidate holds once all its error-slot callees hold.
	for changed := true; changed; {
		changed = false
		for _, fi := range t.funcs {
			if fi.AlwaysNil || !fi.nilCandidate {
				continue
			}
			ok := true
			for _, dep := range fi.errDeps {
				d := t.funcs[dep]
				if d == nil || !d.AlwaysNil {
					ok = false
					break
				}
			}
			if ok {
				fi.AlwaysNil = true
				changed = true
			}
		}
	}

	// 3. Transitive acquired-lock sets (for order edges through calls).
	for _, fi := range t.funcs {
		fi.effAcquired = t.acquiredClosure(fi, map[*FuncInfo]bool{})
	}

	// 4. Pending under-lock call sites -> order edges via callee acquisitions.
	for _, pe := range t.pendingEdges {
		c := t.funcs[pe.callee]
		if c == nil {
			continue
		}
		for to := range c.effAcquired {
			if isLocalKey(to) {
				continue
			}
			for _, from := range pe.held {
				if from != to && !isLocalKey(from) {
					t.edges = append(t.edges, OrderEdge{From: from, To: to, Pos: pe.pos})
				}
			}
		}
	}
	t.pendingEdges = nil
	t.dedupEdges()

	// 5. Transitive blocking ops.
	for _, fi := range t.funcs {
		t.blockingClosure(fi, map[*FuncInfo]bool{})
	}

	t.frozen = true
}

// acquiredClosure unions the locks fn and its callees acquire.
func (t *Table) acquiredClosure(fi *FuncInfo, seen map[*FuncInfo]bool) map[Key]bool {
	if fi.effAcquired != nil {
		return fi.effAcquired
	}
	if seen[fi] {
		return fi.Acquired // recursion: own locks only
	}
	seen[fi] = true
	out := map[Key]bool{}
	for k := range fi.Acquired {
		out[k] = true
	}
	for _, op := range fi.Ops {
		if op.Kind != OpCall {
			continue
		}
		c := t.funcs[op.Callee]
		if c == nil {
			continue
		}
		for k := range t.acquiredClosure(c, seen) {
			out[k] = true
		}
	}
	fi.effAcquired = out
	return out
}

// maxBlockOps caps a function's transitive blocking list; beyond this the
// caller-side report is dominated by the first few ops anyway.
const maxBlockOps = 8

// blockingClosure materializes the transitive blocking ops of fn: its own
// ops plus its callees' ops, each widened by the locks the path to it
// releases. Exempt functions contribute nothing.
func (t *Table) blockingClosure(fi *FuncInfo, seen map[*FuncInfo]bool) []BlockOp {
	if fi.effDone {
		return fi.effBlocking
	}
	if seen[fi] {
		return nil // break recursion cycles conservatively
	}
	seen[fi] = true
	if fi.Exempt {
		fi.effBlocking = nil
		fi.effDone = true
		return nil
	}
	var out []BlockOp
	add := func(op BlockOp) {
		for _, have := range out {
			if have.What == op.What && sameKeySet(have.Released, op.Released) {
				return
			}
		}
		if len(out) < maxBlockOps {
			out = append(out, op)
		}
	}
	for _, op := range fi.Ops {
		switch op.Kind {
		case OpBlock:
			add(BlockOp{What: op.What, Released: keySet(op.Released)})
		case OpCall:
			c := t.funcs[op.Callee]
			if c == nil {
				continue
			}
			for _, sub := range t.blockingClosure(c, seen) {
				rel := keySet(op.Released)
				for k := range sub.Released {
					rel[k] = true
				}
				via := c.Name
				if sub.Via != "" {
					via = c.Name + " → " + sub.Via
				}
				add(BlockOp{What: sub.What, Via: via, Released: rel})
			}
		}
	}
	fi.effBlocking = out
	fi.effDone = true
	return out
}

func keySet(keys []Key) map[Key]bool {
	m := map[Key]bool{}
	for _, k := range keys {
		m[k] = true
	}
	return m
}

func sameKeySet(a, b map[Key]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func (t *Table) dedupEdges() {
	sort.Slice(t.edges, func(i, j int) bool {
		a, b := t.edges[i], t.edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Pos < b.Pos
	})
	var out []OrderEdge
	for _, e := range t.edges {
		if n := len(out); n > 0 && out[n-1].From == e.From && out[n-1].To == e.To {
			continue
		}
		out = append(out, e)
	}
	t.edges = out
}

// Callees returns the distinct statically resolved callees of fn (direct
// calls and goroutine launches), for call-graph reachability walks.
func (t *Table) Callees(fn *types.Func) []*types.Func {
	fi := t.Lookup(fn)
	if fi == nil {
		return nil
	}
	seen := map[*types.Func]bool{}
	var out []*types.Func
	for _, op := range fi.Ops {
		if op.Kind == OpCall && !seen[op.Callee] {
			seen[op.Callee] = true
			out = append(out, op.Callee)
		}
	}
	return out
}

// LookupObj is Lookup with an untyped object (convenience for callers
// holding types.Object).
func (t *Table) LookupObj(obj types.Object) *FuncInfo {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return t.Lookup(fn)
}
