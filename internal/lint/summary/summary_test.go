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
	"sync/atomic"
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

type Resources struct{ n int }

func (r *Resources) Err() error { r.n++; return nil }

func checkpoints(r *Resources) error { return r.Err() }
func viaCheckpoints(r *Resources) error { return checkpoints(r) }

func alwaysNil() error      { return nil }
func forwardsNil() error    { return alwaysNil() }
func realError() error      { return errors.New("boom") }
func forwardsError() error  { return realError() }

type handle struct{ open bool }

func (h *handle) Close() error { h.open = false; return nil }

type holder struct{ h *handle }

func releases(h *handle)          { h.Close() }
func escapes(o *holder, h *handle) { o.h = h }
func borrows(h *handle) bool       { return h.open }

type Counter struct{ v atomic.Int64 }

func (c *Counter) Inc() { c.v.Add(1) }

var (
	mRows  Counter
	legacy int64
)

type cache struct{ hits atomic.Int64 }

func bumps()            { mRows.Inc() }
func viaBumps()         { bumps() }
func bumpsLegacy()      { atomic.AddInt64(&legacy, 1) }
func private(c *cache)  { c.hits.Add(1) }
func reads() int64      { return atomic.LoadInt64(&legacy) }

//lint:hot-metric publishes a batch
func publishes() { mRows.Inc() }
func viaPublishes() { publishes() }
func audited() {
	mRows.Inc() //lint:hot-metric once per statement
}

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

func TestHotWritesPropagate(t *testing.T) {
	tab, pkg := buildTable(t)
	direct := tab.HotWrites(fn(t, pkg, "bumps"))
	if len(direct) != 1 || direct[0].What != "summarytest.mRows.Inc" || direct[0].Via != "" {
		t.Fatalf("bumps: want one direct summarytest.mRows.Inc, got %+v", direct)
	}
	via := tab.HotWrites(fn(t, pkg, "viaBumps"))
	if len(via) != 1 || via[0].Via != "summarytest.bumps" {
		t.Fatalf("viaBumps: want the write with Via=summarytest.bumps, got %+v", via)
	}
	if hw := tab.HotWrites(fn(t, pkg, "bumpsLegacy")); len(hw) != 1 || hw[0].What != "summarytest: atomic.AddInt64(&legacy)" {
		t.Fatalf("bumpsLegacy: want summarytest: atomic.AddInt64(&legacy), got %+v", hw)
	}
	// A struct-field atomic is the owner's business, a load writes nothing,
	// and //lint:hot-metric on a site or a declaration stops the effect.
	for _, name := range []string{"private", "reads", "publishes", "viaPublishes", "audited", "harmless"} {
		if hw := tab.HotWrites(fn(t, pkg, name)); len(hw) != 0 {
			t.Errorf("%s: want no hot writes, got %+v", name, hw)
		}
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

func TestArgFates(t *testing.T) {
	tab, pkg := buildTable(t)
	if got := tab.ArgFate(fn(t, pkg, "releases"), 0); got != FateReleases {
		t.Errorf("releases: want FateReleases, got %v", got)
	}
	if got := tab.ArgFate(fn(t, pkg, "escapes"), 1); got != FateEscapes {
		t.Errorf("escapes: want FateEscapes, got %v", got)
	}
	if got := tab.ArgFate(fn(t, pkg, "borrows"), 0); got != FateBorrows {
		t.Errorf("borrows: want FateBorrows, got %v", got)
	}
	if got := tab.ArgFate(nil, 0); got != FateUnknown {
		t.Errorf("unknown callee: want FateUnknown, got %v", got)
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
