package exec

import (
	"math/rand"
	"testing"

	"github.com/mural-db/mural/internal/dataset"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// The Ψ benchmarks: a fused scan and a join over stored phonemes (the per-row
// and per-pair paths the workloads take), and the same over a bare TEXT
// column — the one operand Ψ still converts at run time, through the G2P
// cache: once per row in a scan, once per inner row in a join. The Ω scan
// and join benchmarks cover both forms a probe compiles to.
//
//	go test ./internal/exec -run '^$' -bench 'BenchmarkPsi|BenchmarkOmega' -benchmem -count 10

// benchNames fills table name with n rows of one column of the given kind,
// cycling through 64 distinct names, one of which is "nehru".
func benchNames(env *mockEnv, name string, n int, kind types.Kind) {
	onsets := []string{"ne", "ga", "pa", "bo", "ra", "ki", "su", "mo"}
	codas := []string{"hru", "ndhi", "tel", "se", "jan", "shna", "resh", "van"}
	for i := 0; i < n; i++ {
		text := onsets[i%8] + codas[i/8%8]
		v := types.NewText(text)
		if kind == types.KindUniText {
			v = u(text, types.LangEnglish)
		}
		env.tables[name] = append(env.tables[name], types.Tuple{v})
	}
	env.pagesFor(name)
}

// benchScan runs the scan node over env's table until b is done, requiring
// rows of it, and reports ns per table row.
func benchScan(b *testing.B, env Env, node *plan.Node, rows int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := Run(env, node, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		got, err := cur.All()
		if err != nil || len(got) == 0 {
			b.Fatalf("%d rows, %v", len(got), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// scanNames is the row count of the stored-operand scan benchmarks' tables.
const scanNames = 16384

// namesOnHeap serves table name, of one UNITEXT column, from heap pages
// holding the values of rows, and returns its columns.
func namesOnHeap(b *testing.B, env *heapEnv, name string, rows []types.UniText) []plan.ColInfo {
	for _, v := range rows {
		env.tables[name] = append(env.tables[name], types.Tuple{types.NewUniText(v)})
	}
	h, err := heapOf(env.labels(), []types.Kind{types.KindUniText}, env.tables[name], func(int) bool { return false })
	if err != nil {
		b.Fatal(err)
	}
	env.heaps[name] = h
	return []plan.ColInfo{{Rel: name, Name: "n", Kind: types.KindUniText}}
}

// BenchmarkPsiScanStored is the fused Ψ scan at threshold 2 of one of
// scanNames seeded dataset.GenerateNames names against all of them, on heap
// pages: the psi_scan workload's per-row path, whose key test passes about
// one row in twenty in no pattern a branch predictor can learn.
func BenchmarkPsiScanStored(b *testing.B) {
	env := &heapEnv{mockEnv: newMockEnv(), heaps: map[string]*storage.Heap{}}
	var rows []types.UniText
	for _, r := range dataset.GenerateNames(dataset.NamesConfig{Records: scanNames, Seed: 1, NoiseRate: -1}) {
		rows = append(rows, r.Name)
	}
	cols := namesOnHeap(b, env, "t", rows)
	node := &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{scanNode("t", cols)}, Cols: cols,
		Cond: &plan.Psi{L: &plan.ColIdx{Idx: 0, Kind: types.KindUniText}, R: &plan.Const{Val: types.NewUniText(rows[scanNames/2])}, Threshold: 2}}
	benchScan(b, env, node, scanNames)
}

// BenchmarkPsiScanText is the fused Ψ scan of benchNames' rows as bare
// TEXT, each converted through the G2P cache.
func BenchmarkPsiScanText(b *testing.B) {
	env := newMockEnv()
	const n = 4096
	benchNames(env, "t", n, types.KindText)
	cols := []plan.ColInfo{{Rel: "t", Name: "n", Kind: types.KindText}}
	node := &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{scanNode("t", cols)}, Cols: cols,
		Cond: &plan.Psi{L: &plan.ColIdx{Idx: 0, Kind: types.KindText}, R: &plan.Const{Val: types.NewText("nehru")}}}
	benchScan(b, env, node, n)
}

// benchPsiJoin joins outer rows with inner ones of benchNames at threshold
// k; onHeap serves the inner table from heapOf's real heap pages rather than
// the mock's two-record ones.
func benchPsiJoin(b *testing.B, kind types.Kind, outer, inner, k int, onHeap bool) {
	env := &heapEnv{mockEnv: newMockEnv(), heaps: map[string]*storage.Heap{}}
	benchNames(env.mockEnv, "o", outer, kind)
	benchNames(env.mockEnv, "i", inner, kind)
	if onHeap {
		h, err := heapOf(env.labels(), []types.Kind{kind}, env.tables["i"], func(int) bool { return false })
		if err != nil {
			b.Fatal(err)
		}
		env.heaps["i"] = h
	}
	oc := []plan.ColInfo{{Rel: "o", Name: "n", Kind: kind}}
	ic := []plan.ColInfo{{Rel: "i", Name: "n", Kind: kind}}
	node := &plan.Node{Op: plan.OpPsiJoin, Children: []*plan.Node{scanNode("o", oc), scanNode("i", ic)},
		Cols: append(append([]plan.ColInfo{}, oc...), ic...), Cond: &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.ColIdx{Idx: 1}, Threshold: k}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := Run(env, node, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := cur.All()
		if err != nil || len(rows) == 0 {
			b.Fatalf("%d rows, %v", len(rows), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*outer*inner), "ns/pair")
}

// BenchmarkPsiJoinStored joins 8 outer rows with 1,024 inner ones, and 2
// with 25,000 — the psi_join workload's probe rows against its names table —
// at threshold 1 on the mock's pages, and 2 with 25,000 at the workload's
// threshold 2 on heap pages.
func BenchmarkPsiJoinStored(b *testing.B) {
	b.Run("outer=8", func(b *testing.B) { benchPsiJoin(b, types.KindUniText, 8, 1024, 1, false) })
	b.Run("outer=2", func(b *testing.B) { benchPsiJoin(b, types.KindUniText, 2, 25000, 1, false) })
	b.Run("outer=2/heap,k=2", func(b *testing.B) { benchPsiJoin(b, types.KindUniText, 2, 25000, 2, true) })
}

func BenchmarkPsiJoinText(b *testing.B) { benchPsiJoin(b, types.KindText, 8, 1024, 1, false) }

// omegaJoinClosures is the closure size of BenchmarkOmegaJoin's concept per
// case: small enough for a probe over rows without labels to build filters
// (filtered) or too large for them (labels). Over stored labels, as in both
// benchmarks, neither builds any.
var omegaJoinClosures = map[string]int{"filtered": 20, "labels": 1000}

// omegaJoinBench is the join BenchmarkOmegaJoin runs: 8 outer rows naming
// one concept with the given closure size against 1,024 inner words,
// Ω(inner, outer), the inner scan estimated at its true size.
func omegaJoinBench(net *wordnet.Net, closure int) (*mockEnv, *plan.Node, types.UniText) {
	const outer, inner = 8, 1024
	env := newMockEnv()
	env.net = net
	concept := types.Compose(net.Lemma(types.LangEnglish, net.FindClosureOfSize(closure)), types.LangEnglish)
	for i := 0; i < outer; i++ {
		env.tables["o"] = append(env.tables["o"], types.Tuple{types.NewUniText(concept)})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < inner; i++ {
		text, lang := omegaWord(rng, net)
		env.tables["i"] = append(env.tables["i"], types.Tuple{types.NewUniText(types.Compose(text, lang))})
	}
	oc := []plan.ColInfo{{Rel: "o", Name: "n", Kind: types.KindUniText}}
	ic := []plan.ColInfo{{Rel: "i", Name: "n", Kind: types.KindUniText}}
	scan := scanNode("i", ic)
	scan.EstRows = inner
	return env, &plan.Node{Op: plan.OpOmegaJoin, Children: []*plan.Node{scanNode("o", oc), scan},
		Cols: append(append([]plan.ColInfo{}, oc...), ic...), Cond: &plan.Omega{L: &plan.ColIdx{Idx: 1}, R: &plan.ColIdx{Idx: 0}}}, concept
}

// BenchmarkOmegaJoin runs omegaJoinBench's join for each closure size.
func BenchmarkOmegaJoin(b *testing.B) {
	net := omegaNet()
	for _, name := range []string{"filtered", "labels"} {
		b.Run(name, func(b *testing.B) {
			env, node, _ := omegaJoinBench(net, omegaJoinClosures[name])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur, err := Run(env, node, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				rows, err := cur.All()
				if err != nil || len(rows) == 0 {
					b.Fatalf("%d rows, %v", len(rows), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(env.tables["o"])*len(env.tables["i"])), "ns/pair")
		})
	}
}

// BenchmarkOmegaScanStored is the fused Ω scan, with omegaJoinBench's
// concept of each closure size as the constant, of scanNames rows on heap
// pages: seeded dataset.GenerateNames names in two of the net's languages,
// which name no synset (NoSynsets), with one row in sixteen one of
// omegaWord's words, some of which match.
func BenchmarkOmegaScanStored(b *testing.B) {
	net := omegaNet()
	names := dataset.GenerateNames(dataset.NamesConfig{Records: scanNames, Seed: 1, NoiseRate: -1,
		Langs: []types.LangID{types.LangEnglish, types.LangFrench}})
	rng := rand.New(rand.NewSource(1))
	var rows []types.UniText
	for i, r := range names {
		if i%16 == 0 {
			r.Name = types.Compose(omegaWord(rng, net))
		}
		rows = append(rows, r.Name)
	}
	for _, name := range []string{"filtered", "labels"} {
		b.Run(name, func(b *testing.B) {
			env := &heapEnv{mockEnv: newMockEnv(), heaps: map[string]*storage.Heap{}}
			env.net = net
			cols := namesOnHeap(b, env, "t", rows)
			_, _, concept := omegaJoinBench(net, omegaJoinClosures[name])
			scan := scanNode("t", cols)
			scan.EstRows = scanNames
			node := &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{scan}, Cols: cols,
				Cond: &plan.Omega{L: &plan.ColIdx{Idx: 0, Kind: types.KindUniText}, R: &plan.Const{Val: types.NewUniText(concept)}}}
			benchScan(b, env, node, scanNames)
		})
	}
}

// BenchmarkFilterGeneric is the per-row path of the generic filter, which the
// index rechecks and the Ψ index join's recheck share (constPred.eval): a Ψ
// over benchNames' rows and the Ω of BenchmarkOmegaScanStored (filtered),
// each kept from fusing by a conjunction.
func BenchmarkFilterGeneric(b *testing.B) {
	generic := func(x plan.Expr) plan.Expr { return &plan.AndOr{L: x, R: &plan.Const{Val: types.NewBool(true)}} }
	psi := newMockEnv()
	benchNames(psi, "t", 4096, types.KindUniText)
	cols := []plan.ColInfo{{Rel: "t", Name: "n", Kind: types.KindUniText}}
	psiNode := &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{scanNode("t", cols)}, Cols: cols,
		Cond: generic(&plan.Psi{L: &plan.ColIdx{Idx: 0, Kind: types.KindUniText}, R: &plan.Const{Val: types.NewText("nehru")}})}
	omega, join, concept := omegaJoinBench(omegaNet(), omegaJoinClosures["filtered"])
	scan := join.Children[1]
	omegaNode := &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{scan}, Cols: scan.Cols,
		Cond: generic(&plan.Omega{L: &plan.ColIdx{Idx: 0, Kind: types.KindUniText}, R: &plan.Const{Val: types.NewUniText(concept)}})}
	for _, c := range []struct {
		name  string
		env   *mockEnv
		node  *plan.Node
		table string
	}{{"psi", psi, psiNode, "t"}, {"omega", omega, omegaNode, "i"}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur, err := Run(c.env, c.node, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				rows, err := cur.All()
				if err != nil || len(rows) == 0 {
					b.Fatalf("%d rows, %v", len(rows), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.env.tables[c.table])), "ns/row")
		})
	}
}
