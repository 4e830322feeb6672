// Package lockscope enforces the engine's lock-scope discipline using the
// interprocedural summaries: no blocking operation — fsync, Wait, channel
// send/receive without a select default, time.Sleep, network I/O — may run
// while a sync.Mutex/RWMutex is held, whether the block happens directly or
// anywhere down the (statically resolved) call chain. It additionally audits
// the lock hand-off idiom — a function releasing a mutex its caller holds
// must be annotated //lint:lock-handoff — and reports acquisition-order
// cycles in the global lock-order graph.
//
// Deliberate exclusions: sync.Cond.Wait (atomically unlocks its mutex) and
// buffer-pool page I/O under the pool latch (ReadPage/WritePage are the
// pool's job, not generic blocking verbs). Audited blocking-under-lock sites
// carry //lint:lock-held-io — at the call site for one op, on the function
// declaration to exempt the whole function and stop propagation to callers.
package lockscope

import (
	"sort"
	"strings"

	"github.com/mural-db/mural/internal/lint/analysis"
	"github.com/mural-db/mural/internal/lint/lintutil"
	"github.com/mural-db/mural/internal/lint/summary"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockscope",
	Doc:  "no blocking I/O (fsync, Wait, channel ops, sleeps, net I/O) while holding a mutex, directly or through callees; lock hand-offs must be annotated //lint:lock-handoff; no acquisition-order cycles",
	Run:  run,
}

// inScope limits enforcement to the packages whose lock discipline the
// engine documents (plus bare testdata packages).
func inScope(path string) bool {
	return strings.HasSuffix(path, "/mural") ||
		strings.Contains(path, "internal/storage") ||
		strings.Contains(path, "internal/exec") ||
		!strings.Contains(path, "/")
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.ImportPath) {
		return nil
	}
	ann := lintutil.CollectAnnotations(pass.Fset, pass.Files)
	table := summary.ForPkg(pass.Fset, pass.Pkg, pass.TypesInfo, pass.Files)

	for _, fd := range lintutil.FuncDecls(pass) {
		obj, ok := pass.TypesInfo.Defs[fd.Name]
		if !ok {
			continue
		}
		fi := table.LookupObj(obj)
		if fi == nil || fi.Exempt {
			continue
		}
		checkFunc(pass, ann, table, fi)
	}

	reportCycles(pass, table)
	return nil
}

func checkFunc(pass *analysis.Pass, ann *lintutil.Annotations, table *summary.Table, fi *summary.FuncInfo) {
	// Unannotated hand-off: the function releases a lock its caller holds.
	if len(fi.HandedOff) > 0 && !fi.HandoffOK {
		pass.Reportf(fi.HandoffPos,
			"%s releases %s without acquiring it (lock hand-off); annotate the declaration with //lint:lock-handoff if callers intentionally delegate the unlock",
			fi.Name, keyList(fi.HandedOff))
	}

	for _, op := range fi.Ops {
		if len(op.Held) == 0 {
			continue
		}
		if ann.Has(op.Pos, "lock-held-io") {
			continue
		}
		switch op.Kind {
		case summary.OpBlock:
			pass.Reportf(op.Pos, "%s while holding %s; move the blocking operation outside the critical section or annotate with //lint:lock-held-io",
				op.What, keyList(op.Held))
		case summary.OpCall:
			for _, sub := range table.Blocking(op.Callee) {
				var bad []summary.Key
				for _, k := range op.Held {
					if !sub.Released[k] {
						bad = append(bad, k)
					}
				}
				if len(bad) == 0 {
					continue
				}
				via := calleeName(table, op)
				if sub.Via != "" {
					via += " → " + sub.Via
				}
				pass.Reportf(op.Pos, "call may perform %s (via %s) while holding %s; release the lock first, or annotate an audited site with //lint:lock-held-io",
					sub.What, via, keyList(bad))
				break // one report per call site is enough
			}
		}
	}
}

func calleeName(table *summary.Table, op summary.Op) string {
	if fi := table.Lookup(op.Callee); fi != nil {
		return fi.Name
	}
	return op.Callee.Name()
}

// reportCycles reports each global acquisition-order cycle exactly once: in
// the package containing the cycle's anchor position.
func reportCycles(pass *analysis.Pass, table *summary.Table) {
	files := map[string]bool{}
	for _, f := range pass.Files {
		files[pass.Position(f.Pos()).Filename] = true
	}
	for _, c := range table.Cycles() {
		if !c.Pos.IsValid() || !files[pass.Position(c.Pos).Filename] {
			continue
		}
		pass.Reportf(c.Pos, "lock acquisition-order cycle among %s: these locks are taken in conflicting orders on different paths; establish one global order",
			keyList(c.Keys))
	}
}

func keyList(keys []summary.Key) string {
	ss := make([]string, len(keys))
	for i, k := range keys {
		ss[i] = string(k)
	}
	sort.Strings(ss)
	return strings.Join(ss, ", ")
}
