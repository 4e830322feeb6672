package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
)

// keyTestPage fills table "i" of env, on one mock page, with a row for every
// exit of the key test the fused kernel runs before an operand's read: a
// stored phoneme (the test itself), none (converted), one
// of 255 runes or more (summarised off the phoneme), languages an IN list
// admits and excludes, NULL, TEXT, and a NULL id, which the fast walk steps
// off. The Ω rows are words of omegaNet's footnote-2 branch.
func keyTestPage(t *testing.T, env *mockEnv) {
	t.Helper()
	vals := []types.Value{
		u("nehru", types.LangEnglish), u("neru", types.LangEnglish), u("gandhi", types.LangEnglish),
		types.NewUniText(types.Compose("nehru", types.LangEnglish)),
		types.NewUniText(types.UniText{Text: "nehru nehru", Lang: types.LangEnglish, Phoneme: keyTestLongPhoneme}),
		u("नेहरू", types.LangHindi), u("நேரு", types.LangTamil),
		types.Null(), types.NewText("nehru"), types.NewText("History"),
		u("history", types.LangEnglish), u("Historiography", types.LangEnglish), u("tamil:history", types.LangTamil),
		types.NewUniText(types.Compose("FRENCH:HISTORY", types.LangFrench)),
	}
	env.pageRows = 64
	env.tables["i"] = nil
	for i, v := range vals {
		env.tables["i"] = append(env.tables["i"], types.Tuple{types.NewInt(int64(i)), v})
	}
	env.tables["i"] = append(env.tables["i"], types.Tuple{types.Null(), u("nehru", types.LangEnglish)})
	if pages := len(env.pagesFor("i")); pages != 1 {
		t.Fatalf("the table takes %d pages, want 1", pages)
	}
}

// keyTestLongPhoneme is a phoneme of 280 runes: its stored count overflows.
var keyTestLongPhoneme = strings.Repeat("nɛru", 70)

// Ψ and Ω over one page that mixes every exit of the key test, with and
// without an IN list: the fused scan, serial and under a Gather, returns the
// generic filter's rows and counts (constPred.eval), and the hoisted join,
// over each inner shape, the per-pair filter's.
func TestKeyTestMixedPage(t *testing.T) {
	env := newMockEnv()
	env.net = omegaNet()
	keyTestPage(t, env)
	long := types.NewUniText(types.UniText{Text: "nehru nehru", Lang: types.LangEnglish, Phoneme: keyTestLongPhoneme})
	psiConsts := []types.Value{types.NewText("nehru"), u("nehru", types.LangEnglish), long, types.Null(), u("நேரு", types.LangTamil)}
	omegaConsts := []types.Value{types.NewText("History"), u("history", types.LangEnglish)}
	cols := []plan.ColInfo{{Rel: "i", Name: "id", Kind: types.KindInt}, {Rel: "i", Name: "n", Kind: types.KindUniText}}
	col := &plan.ColIdx{Idx: 1, Kind: types.KindUniText}
	var conds []plan.Expr
	for _, langs := range [][]types.LangID{nil, {types.LangEnglish, types.LangHindi}} {
		for _, c := range psiConsts {
			conds = append(conds, &plan.Psi{L: col, R: &plan.Const{Val: c}, Threshold: 2, Langs: langs})
		}
		for _, c := range omegaConsts {
			conds = append(conds, &plan.Omega{L: col, R: &plan.Const{Val: c}, Langs: langs})
		}
	}
	matched := 0
	for _, cond := range conds {
		run := func(t *testing.T, cond plan.Expr, workers int) ([]types.Tuple, RunStats, bool) {
			t.Helper()
			scan := scanNode("i", cols)
			scan.Parallel = workers > 0
			node := &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{scan}, Cols: cols, Cond: cond}
			if workers > 0 {
				node = &plan.Node{Op: plan.OpGather, Children: []*plan.Node{node}, Cols: cols, Workers: workers}
			}
			res := NewResources(context.Background(), 0)
			cur, err := Run(env, node, nil, res)
			if err != nil {
				t.Fatal(err)
			}
			fused := fusedScan(cur.src)
			rows, err := cur.All()
			if err != nil {
				t.Fatal(err)
			}
			settled(t, cur, res)
			return rows, *cur.Stats, fused
		}
		t.Run(plan.ExprString(cond), func(t *testing.T) {
			// The conjunction keeps the filter generic: it evaluates the Ψ
			// or Ω on each decoded row (constPred.eval).
			want, wantStats, _ := run(t, &plan.AndOr{L: cond, R: &plan.Const{Val: types.NewBool(true)}}, 0)
			matched += len(want)
			for _, workers := range []int{0, 2} {
				got, stats, fused := run(t, cond, workers)
				if workers == 0 && !fused {
					t.Fatal("the filter did not fuse")
				}
				eqRowSets(t, got, want)
				if stats.PsiEvaluations != wantStats.PsiEvaluations || stats.OmegaProbes != wantStats.OmegaProbes {
					t.Errorf("workers=%d: %d Ψ evaluations and %d Ω probes, want %d and %d",
						workers, stats.PsiEvaluations, stats.OmegaProbes, wantStats.PsiEvaluations, wantStats.OmegaProbes)
				}
			}
		})
	}
	// The same operands as outer rows of a join over the page.
	for _, omega := range []bool{false, true} {
		consts := psiConsts
		if omega {
			consts = omegaConsts
		}
		env.tables["o"] = nil
		for i, c := range consts {
			env.tables["o"] = append(env.tables["o"], types.Tuple{types.NewInt(int64(i)), c})
		}
		for _, langs := range [][]types.LangID{nil, {types.LangEnglish, types.LangHindi}} {
			for shape := innerShape(0); shape < innerShapes; shape++ {
				c := joinCase{outer: "o", inner: "i", cond: joinCond(omega, true, 1, 1, 2, langs), shape: shape}
				t.Run(fmt.Sprint(c), func(t *testing.T) {
					m, failed := joinAgree(t, env, c)
					if failed {
						t.Fatal("the join failed")
					}
					matched += m
				})
			}
		}
	}
	if matched == 0 {
		t.Fatal("no row matched")
	}
}
