// Package summary computes per-function effect summaries for the murallint
// suite: which locks a function acquires and releases, which blocking
// operations it performs (and under which locks), whether it contains an
// amortized cancellation checkpoint, and two engine-specific effects
// (commits a WAL batch, provably returns a nil error).
//
// Summaries are computed bottom-up: murallint loads every module package in
// dependency order (go list -deps lists dependencies first), adds each to one
// shared Table, then calls Freeze, which closes the direct facts over the
// call graph (a function that calls fsync transitively "performs fsync").
// After Freeze the table is immutable.
//
// The intraprocedural scan is a structured walk, not a CFG: lock state is
// tracked linearly in source order, branch bodies run on a copy of the state,
// and a branch that terminates (returns) discards its lock effects — which
// models the universal `if err { mu.Unlock(); return err }` early-exit shape
// without path explosion. Function literals in `go` statements are skipped
// (their effects belong to another goroutine); other literals are folded into
// the enclosing function at their definition point. sync.Cond.Wait is never a
// blocking op (it atomically unlocks its mutex), and lock operations are only
// recognized when they resolve to the real sync.Mutex/RWMutex methods.
package summary

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"github.com/mural-db/mural/internal/lint/lintutil"
)

// Key identifies one lock for held-set and ordering purposes. Keys are
// type-granular, not instance-granular: every *storage.Pool shares the key
// "storage.Pool.mu". That is exact for the engine's singleton locks and a
// documented approximation for per-instance latches.
type Key string

// OpKind distinguishes the two op records a function carries.
type OpKind int

const (
	// OpBlock is a directly performed blocking operation.
	OpBlock OpKind = iota
	// OpCall is a statically resolved call (the callee may block).
	OpCall
)

// Op is one operation observed in a function body, with the lock state the
// linear scan saw at that point.
type Op struct {
	Pos  token.Pos
	Kind OpKind
	// What describes a blocking op ("fsync", "channel send", ...).
	What string
	// Callee is the statically resolved callee for OpCall.
	Callee *types.Func
	// Held are the lock keys held (positively) at this op.
	Held []Key
	// Released are lock keys with a negative balance at this op: locks the
	// function has released on behalf of its caller (the hand-off idiom).
	Released []Key
}

// BlockOp is one (possibly transitive) blocking operation as seen by a
// caller: what blocks, through which call chain, and which caller-held locks
// are already released by the time it runs.
type BlockOp struct {
	What string
	// Via is the call chain from the summarized function to the op
	// ("SealedBatch.Wait → PendingCommit.Wait"), empty for a direct op.
	Via string
	// Released holds lock keys that are handed off (released) on the path to
	// this op, so a caller holding one of them is safe.
	Released map[Key]bool
}

// OrderEdge is one observed acquisition ordering: To was acquired while From
// was held.
type OrderEdge struct {
	From, To Key
	Pos      token.Pos
}

// FuncInfo is the summary of one function.
type FuncInfo struct {
	Name string // short display name ("Pool.SealBatch")

	// Ops are the function's blocking ops and static calls in source order.
	Ops []Op
	// Acquired are lock keys the function itself acquires (even if released).
	Acquired map[Key]bool
	// HandedOff are lock keys whose balance went negative at top level: the
	// function released a lock its caller holds.
	HandedOff  []Key
	HandoffPos token.Pos

	// HandoffOK: the declaration carries //lint:lock-handoff.
	HandoffOK bool
	// Exempt: the declaration carries //lint:lock-held-io — the function's
	// blocking effects are audited and do not propagate to callers.
	Exempt bool

	// Checkpoint: the function contains an amortized cancellation checkpoint
	// (directly, or — after Freeze — via a callee).
	Checkpoint bool
	// AlwaysNil: every return provably yields a nil error (after Freeze).
	AlwaysNil bool
	// CommitsBatch: the function (transitively) commits or aborts a WAL batch.
	CommitsBatch bool

	nilCandidate bool
	errDeps      []*types.Func

	effBlocking []BlockOp
	effAcquired map[Key]bool
	effDone     bool
}

// Table holds the summaries of every scanned package.
type Table struct {
	fset   *token.FileSet
	funcs  map[*types.Func]*FuncInfo
	pkgs   map[*types.Package]bool
	edges  []OrderEdge
	frozen bool

	// pendingEdges are call sites under held locks whose callee acquisitions
	// become order edges at Freeze.
	pendingEdges []pendingEdge
}

type pendingEdge struct {
	held   []Key
	callee *types.Func
	pos    token.Pos
}

// NewTable creates an empty table over one file set.
func NewTable(fset *token.FileSet) *Table {
	return &Table{
		fset:  fset,
		funcs: map[*types.Func]*FuncInfo{},
		pkgs:  map[*types.Package]bool{},
	}
}

// global is the driver's whole-module table (nil outside the driver).
var global *Table

// SetGlobal installs a frozen table for ForPkg lookups: the murallint driver
// summarizes every loaded package before any analyzer runs.
func SetGlobal(t *Table) {
	if t != nil && !t.frozen {
		panic("summary: SetGlobal of unfrozen table")
	}
	global = t
}

// ForPkg returns the table covering pkg: the global precomputed table when it
// includes pkg, else a fresh single-package table (the analysistest path,
// where cross-package callees are out of scope anyway).
func ForPkg(fset *token.FileSet, pkg *types.Package, info *types.Info, files []*ast.File) *Table {
	if global != nil && global.pkgs[pkg] {
		return global
	}
	t := NewTable(fset)
	t.AddPackage(pkg, info, files)
	t.Freeze()
	return t
}

// Lookup returns the summary for fn, or nil when fn is outside the table
// (standard library, interface method, or unexported via another module).
func (t *Table) Lookup(fn *types.Func) *FuncInfo {
	if t == nil || fn == nil {
		return nil
	}
	return t.funcs[fn]
}

// Blocking returns the transitive blocking operations of fn (empty for
// unknown or exempt functions).
func (t *Table) Blocking(fn *types.Func) []BlockOp {
	if f := t.Lookup(fn); f != nil {
		return f.effBlocking
	}
	return nil
}

// Checkpoints reports whether fn transitively contains a cancellation
// checkpoint.
func (t *Table) Checkpoints(fn *types.Func) bool {
	f := t.Lookup(fn)
	return f != nil && f.Checkpoint
}

// AlwaysNilError reports whether fn provably returns a nil error on every
// path (false for unknown functions).
func (t *Table) AlwaysNilError(fn *types.Func) bool {
	f := t.Lookup(fn)
	return f != nil && f.AlwaysNil
}

// CommitsBatch reports whether fn transitively commits or aborts a WAL batch.
func (t *Table) CommitsBatch(fn *types.Func) bool {
	f := t.Lookup(fn)
	return f != nil && f.CommitsBatch
}

// Cycle is one acquisition-order cycle: the locks of a strongly connected
// component of the order graph, plus a deterministic anchor position.
type Cycle struct {
	Keys []Key
	Pos  token.Pos
}

// Cycles detects acquisition-order cycles in the lock-order graph. Each
// strongly connected component with an internal edge yields one cycle,
// anchored at its smallest-position edge so exactly one package reports it.
func (t *Table) Cycles() []Cycle {
	adj := map[Key][]OrderEdge{}
	for _, e := range t.edges {
		adj[e.From] = append(adj[e.From], e)
	}
	// Tarjan SCC over the key graph.
	index := map[Key]int{}
	low := map[Key]int{}
	onStack := map[Key]bool{}
	var stack []Key
	var sccs [][]Key
	next := 0
	var strong func(k Key)
	strong = func(k Key) {
		index[k] = next
		low[k] = next
		next++
		stack = append(stack, k)
		onStack[k] = true
		for _, e := range adj[k] {
			w := e.To
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[k] {
					low[k] = low[w]
				}
			} else if onStack[w] && index[w] < low[k] {
				low[k] = index[w]
			}
		}
		if low[k] == index[k] {
			var scc []Key
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == k {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	var keys []Key
	for k := range adj {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if _, seen := index[k]; !seen {
			strong(k)
		}
	}
	var out []Cycle
	for _, scc := range sccs {
		in := map[Key]bool{}
		for _, k := range scc {
			in[k] = true
		}
		// A cycle needs an edge inside the SCC (covers self-loops too).
		anchor := token.NoPos
		cyclic := false
		for _, k := range scc {
			for _, e := range adj[k] {
				if !in[e.To] {
					continue
				}
				if len(scc) > 1 || e.To == k {
					cyclic = true
					if anchor == token.NoPos || e.Pos < anchor {
						anchor = e.Pos
					}
				}
			}
		}
		if !cyclic {
			continue
		}
		sort.Slice(scc, func(i, j int) bool { return scc[i] < scc[j] })
		out = append(out, Cycle{Keys: scc, Pos: anchor})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// AddPackage scans every function of one type-checked package into the
// table. Packages must be added in dependency order for cross-package call
// resolution (go list -deps order); Freeze closes the remaining same-package
// and cyclic facts.
func (t *Table) AddPackage(pkg *types.Package, info *types.Info, files []*ast.File) {
	if t.frozen {
		panic("summary: AddPackage after Freeze")
	}
	t.pkgs[pkg] = true
	dirs := lintutil.CollectAnnotations(t.fset, files)
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := t.scanFunc(info, fd, obj, dirs)
			t.funcs[obj] = fi
		}
	}
}
