package summary

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"github.com/mural-db/mural/internal/lint/load"
)

const src = `package summarytest

import (
	"errors"
	"sync"
	"time"
)

type guarded struct {
	mu sync.Mutex
	a  sync.Mutex
	b  sync.Mutex
}

func sleeps()        { time.Sleep(time.Millisecond) }
func viaSleeps()     { sleeps() }
func harmless() int  { return 1 }

//lint:lock-held-io audited: sleeping is this function's job
func auditedDecl()    { time.Sleep(time.Millisecond) }
func viaAuditedDecl() { auditedDecl() }

func auditedSite() {
	time.Sleep(time.Millisecond) //lint:lock-held-io audited at the site
}

func (g *guarded) unlocks() { g.mu.Unlock() }

//lint:lock-handoff callers delegate the unlock
func (g *guarded) handsOff() { g.mu.Unlock() }

type Resources struct{ n int }

func (r *Resources) Err() error { r.n++; return nil }

func checkpoints(r *Resources) error { return r.Err() }
func viaCheckpoints(r *Resources) error { return checkpoints(r) }

func alwaysNil() error      { return nil }
func forwardsNil() error    { return alwaysNil() }
func realError() error      { return errors.New("boom") }
func forwardsError() error  { return realError() }

func (g *guarded) order1() {
	g.a.Lock()
	g.b.Lock()
	g.b.Unlock()
	g.a.Unlock()
}

func (g *guarded) order2() {
	g.b.Lock()
	g.a.Lock()
	g.a.Unlock()
	g.b.Unlock()
}
`

func buildTable(t *testing.T) (*Table, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "summarytest.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: load.StdImporter(fset)}
	pkg, err := conf.Check("summarytest", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	tab := NewTable(fset)
	tab.AddPackage(pkg, info, []*ast.File{f})
	tab.Freeze()
	return tab, pkg
}

func fn(t *testing.T, pkg *types.Package, name string) *types.Func {
	t.Helper()
	obj := pkg.Scope().Lookup(name)
	f, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("no function %s in test package", name)
	}
	return f
}

func method(t *testing.T, pkg *types.Package, typ, name string) *types.Func {
	t.Helper()
	recv := types.NewPointer(pkg.Scope().Lookup(typ).Type())
	obj, _, _ := types.LookupFieldOrMethod(recv, true, pkg, name)
	f, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("no method %s.%s in test package", typ, name)
	}
	return f
}

func TestBlockingPropagates(t *testing.T) {
	tab, pkg := buildTable(t)
	direct := tab.Blocking(fn(t, pkg, "sleeps"))
	if len(direct) == 0 || direct[0].What != "time.Sleep" {
		t.Fatalf("sleeps: want a time.Sleep blocking op, got %+v", direct)
	}
	via := tab.Blocking(fn(t, pkg, "viaSleeps"))
	if len(via) == 0 {
		t.Fatalf("viaSleeps: blocking effect did not propagate through the call")
	}
	if via[0].Via == "" {
		t.Fatalf("viaSleeps: propagated op should carry a Via chain, got %+v", via[0])
	}
	if ops := tab.Blocking(fn(t, pkg, "harmless")); len(ops) != 0 {
		t.Fatalf("harmless: want no blocking ops, got %+v", ops)
	}
}

// TestLockHeldIOStopsPropagation: //lint:lock-held-io on a declaration
// exempts the function and its callers inherit nothing; on a site it drops
// that one blocking op.
func TestLockHeldIOStopsPropagation(t *testing.T) {
	tab, pkg := buildTable(t)
	if fi := tab.Lookup(fn(t, pkg, "auditedDecl")); fi == nil || !fi.Exempt {
		t.Fatalf("auditedDecl: want an Exempt summary, got %+v", fi)
	}
	for _, name := range []string{"auditedDecl", "viaAuditedDecl", "auditedSite"} {
		if ops := tab.Blocking(fn(t, pkg, name)); len(ops) != 0 {
			t.Errorf("%s: want no blocking ops, got %+v", name, ops)
		}
	}
	if tab.Lookup(fn(t, pkg, "auditedSite")).Exempt {
		t.Errorf("auditedSite: a site annotation must not exempt the whole function")
	}
}

// TestLockHandoffAnnotation: releasing a lock the caller holds records the
// hand-off either way; only //lint:lock-handoff on the declaration marks it
// intended.
func TestLockHandoffAnnotation(t *testing.T) {
	tab, pkg := buildTable(t)
	for _, tc := range []struct {
		name string
		ok   bool
	}{{"unlocks", false}, {"handsOff", true}} {
		fi := tab.Lookup(method(t, pkg, "guarded", tc.name))
		if fi == nil {
			t.Fatalf("%s: no summary", tc.name)
		}
		if len(fi.HandedOff) != 1 || fi.HandedOff[0] != "summarytest.guarded.mu" || !fi.HandoffPos.IsValid() {
			t.Errorf("%s: want guarded.mu handed off at a valid position, got %v at %v", tc.name, fi.HandedOff, fi.HandoffPos)
		}
		if fi.HandoffOK != tc.ok {
			t.Errorf("%s: HandoffOK = %v, want %v", tc.name, fi.HandoffOK, tc.ok)
		}
	}
}

func TestCheckpointPropagates(t *testing.T) {
	tab, pkg := buildTable(t)
	for _, name := range []string{"checkpoints", "viaCheckpoints"} {
		if !tab.Checkpoints(fn(t, pkg, name)) {
			t.Errorf("%s: want Checkpoints=true", name)
		}
	}
	if tab.Checkpoints(fn(t, pkg, "harmless")) {
		t.Errorf("harmless: want Checkpoints=false")
	}
}

func TestAlwaysNilFixpoint(t *testing.T) {
	tab, pkg := buildTable(t)
	if !tab.AlwaysNilError(fn(t, pkg, "alwaysNil")) {
		t.Errorf("alwaysNil: want AlwaysNilError=true")
	}
	if !tab.AlwaysNilError(fn(t, pkg, "forwardsNil")) {
		t.Errorf("forwardsNil: nil-ness should propagate through the forward")
	}
	if tab.AlwaysNilError(fn(t, pkg, "realError")) {
		t.Errorf("realError: want AlwaysNilError=false")
	}
	if tab.AlwaysNilError(fn(t, pkg, "forwardsError")) {
		t.Errorf("forwardsError: want AlwaysNilError=false")
	}
}

func TestOrderCycle(t *testing.T) {
	tab, _ := buildTable(t)
	cycles := tab.Cycles()
	if len(cycles) != 1 {
		t.Fatalf("want exactly one acquisition-order cycle, got %d: %+v", len(cycles), cycles)
	}
	keys := map[Key]bool{}
	for _, k := range cycles[0].Keys {
		keys[k] = true
	}
	if !keys["summarytest.guarded.a"] || !keys["summarytest.guarded.b"] {
		t.Fatalf("cycle keys = %v; want guarded.a and guarded.b", cycles[0].Keys)
	}
	if !cycles[0].Pos.IsValid() {
		t.Fatalf("cycle anchor position must be valid for deterministic reporting")
	}
}
