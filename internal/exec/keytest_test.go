package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

// keyTestPage fills table "i" of env, on one mock page, with a row for every
// exit of the key test the fused kernel runs before an operand's read: a
// stored phoneme (the test itself), none (converted), one
// of 255 runes or more (matched whole), languages an IN list
// admits and excludes, NULL, TEXT, and a NULL id, which the fast walk steps
// off. The Ω rows are words of omegaNet's footnote-2 branch.
func keyTestPage(t *testing.T, env *mockEnv) {
	t.Helper()
	env.pageRows = 64
	env.tables["i"] = nil
	for i, v := range keyTestValues() {
		env.tables["i"] = append(env.tables["i"], types.Tuple{types.NewInt(int64(i)), v})
	}
	env.tables["i"] = append(env.tables["i"], types.Tuple{types.Null(), u("nehru", types.LangEnglish)})
	if pages := len(env.pagesFor("i")); pages != 1 {
		t.Fatalf("the table takes %d pages, want 1", pages)
	}
}

// keyTestValues are the operands of keyTestPage's rows, one for each exit
// of the key test, in page order.
func keyTestValues() []types.Value {
	return []types.Value{
		u("nehru", types.LangEnglish), u("neru", types.LangEnglish), u("gandhi", types.LangEnglish),
		types.NewUniText(types.Compose("nehru", types.LangEnglish)),
		types.NewUniText(types.UniText{Text: "nehru nehru", Lang: types.LangEnglish, Phoneme: keyTestLongPhoneme}),
		u("नेहरू", types.LangHindi), u("நேரு", types.LangTamil),
		types.Null(), types.NewText("nehru"), types.NewText("History"),
		u("history", types.LangEnglish), u("Historiography", types.LangEnglish), u("tamil:history", types.LangTamil),
		types.NewUniText(types.Compose("FRENCH:HISTORY", types.LangFrench)),
	}
}

// keyTestLongPhoneme is a phoneme of 280 runes: its stored count overflows.
var keyTestLongPhoneme = strings.Repeat("nɛru", 70)

// keyTestConds are Ψ and Ω conditions on column col over the mixed page's
// operands, each with and without an IN list; psiConsts and omegaConsts are
// their constants.
func keyTestConds(col *plan.ColIdx) (conds []plan.Expr, psiConsts, omegaConsts []types.Value) {
	long := types.NewUniText(types.UniText{Text: "nehru nehru", Lang: types.LangEnglish, Phoneme: keyTestLongPhoneme})
	psiConsts = []types.Value{types.NewText("nehru"), u("nehru", types.LangEnglish), long, types.Null(), u("நேரு", types.LangTamil)}
	omegaConsts = []types.Value{types.NewText("History"), u("history", types.LangEnglish)}
	for _, langs := range [][]types.LangID{nil, {types.LangEnglish, types.LangHindi}} {
		for _, c := range psiConsts {
			conds = append(conds, &plan.Psi{L: col, R: &plan.Const{Val: c}, Threshold: 2, Langs: langs})
		}
		for _, c := range omegaConsts {
			conds = append(conds, &plan.Omega{L: col, R: &plan.Const{Val: c}, Langs: langs})
		}
	}
	return conds, psiConsts, omegaConsts
}

// scanAgrees runs cond over table's scan (columns cols) fused, serially and
// under a two-worker Gather, against the generic filter (constPred.eval,
// which a conjunction keeps the filter to): the same rows and the same Ψ and
// Ω counts. It returns how many rows matched.
func scanAgrees(t *testing.T, env *mockEnv, table string, cols []plan.ColInfo, cond plan.Expr) int {
	t.Helper()
	run := func(cond plan.Expr, workers int) ([]types.Tuple, RunStats, bool) {
		t.Helper()
		scan := scanNode(table, cols)
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
	want, wantStats, _ := run(&plan.AndOr{L: cond, R: &plan.Const{Val: types.NewBool(true)}}, 0)
	for _, workers := range []int{0, 2} {
		got, stats, fused := run(cond, workers)
		if workers == 0 && !fused {
			t.Fatal("the filter did not fuse")
		}
		eqRowSets(t, got, want)
		if stats.PsiEvaluations != wantStats.PsiEvaluations || stats.OmegaProbes != wantStats.OmegaProbes {
			t.Errorf("workers=%d: %d Ψ evaluations and %d Ω probes, want %d and %d",
				workers, stats.PsiEvaluations, stats.OmegaProbes, wantStats.PsiEvaluations, wantStats.OmegaProbes)
		}
	}
	return len(want)
}

// Ψ and Ω over one page that mixes every exit of the key test, with and
// without an IN list: the fused scan, serial and under a Gather, returns the
// generic filter's rows and counts (constPred.eval), and the hoisted join,
// over each inner shape, the per-pair filter's.
func TestKeyTestMixedPage(t *testing.T) {
	env := newMockEnv()
	env.net = omegaNet()
	keyTestPage(t, env)
	cols := []plan.ColInfo{{Rel: "i", Name: "id", Kind: types.KindInt}, {Rel: "i", Name: "n", Kind: types.KindUniText}}
	conds, psiConsts, omegaConsts := keyTestConds(&plan.ColIdx{Idx: 1, Kind: types.KindUniText})
	matched := 0
	for _, cond := range conds {
		t.Run(plan.ExprString(cond), func(t *testing.T) {
			matched += scanAgrees(t, env, "i", cols, cond)
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

// A table with two UNITEXT columns keeps the first one's filter keys in its
// heap slots (types.KeyedColumn); the second is read off the record as a
// decoded value is (operand.readRecord without slot keys). Ψ and Ω on each
// column, with and without an IN list, answer what the generic filter
// answers, with its counts: fused, serially and under a Gather, and as the
// inner side of a hoisted join, over the scan bare and materialized and over
// a Filter's rows, which the join lays out in pages of its own with the same
// slot keys.
func TestTwoUniTextColumnsOneKeyed(t *testing.T) {
	env := newMockEnv()
	env.net = omegaNet()
	keyTestPage(t, env)
	// Table w: the mixed page's operands as column a, and in the reverse
	// order as column b.
	mixed := env.tables["i"]
	for k, r := range mixed {
		env.tables["w"] = append(env.tables["w"], types.Tuple{r[0], r[1], mixed[len(mixed)-1-k][1]})
	}
	if keyed, _ := types.KeyedColumn(mockKinds(env.tables["w"])); keyed != 1 {
		t.Fatalf("keyed column %d, want 1 (a)", keyed)
	}
	cols := []plan.ColInfo{{Rel: "w", Name: "id", Kind: types.KindInt}, {Rel: "w", Name: "a", Kind: types.KindUniText}, {Rel: "w", Name: "b", Kind: types.KindUniText}}
	outerCols := []plan.ColInfo{{Rel: "o", Name: "id", Kind: types.KindInt}, {Rel: "o", Name: "n", Kind: types.KindUniText}}
	both := append(append([]plan.ColInfo(nil), outerCols...), cols...)
	matched := 0
	for idx := 1; idx <= 2; idx++ {
		conds, psiConsts, omegaConsts := keyTestConds(&plan.ColIdx{Idx: idx, Kind: types.KindUniText})
		for _, cond := range conds {
			t.Run(fmt.Sprintf("%s/%s", cols[idx].Name, plan.ExprString(cond)), func(t *testing.T) {
				matched += scanAgrees(t, env, "w", cols, cond)
			})
		}
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
				var cond plan.Expr = &plan.Psi{L: &plan.ColIdx{Idx: 1}, R: &plan.ColIdx{Idx: 2 + idx}, Threshold: 2, Langs: langs}
				op := plan.OpPsiJoin
				if omega {
					cond, op = &plan.Omega{L: &plan.ColIdx{Idx: 1}, R: &plan.ColIdx{Idx: 2 + idx}, Langs: langs}, plan.OpOmegaJoin
				}
				for _, shape := range []plan.OpType{plan.OpSeqScan, plan.OpMaterialize, plan.OpFilter} {
					join := func(op plan.OpType, cond plan.Expr) *plan.Node {
						inner := scanNode("w", cols)
						if shape != plan.OpSeqScan {
							inner = &plan.Node{Op: shape, Children: []*plan.Node{inner}, Cols: cols}
						}
						if shape == plan.OpFilter {
							inner.Cond = &plan.Const{Val: types.NewBool(true)}
						}
						return &plan.Node{Op: op, Children: []*plan.Node{scanNode("o", outerCols), inner}, Cols: both, Cond: cond}
					}
					t.Run(fmt.Sprintf("%s/%s/%s", cols[idx].Name, shape, plan.ExprString(cond)), func(t *testing.T) {
						ref := runJoin(t, env, &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{join(plan.OpNLJoin, nil)}, Cols: both, Cond: cond})
						got := runJoin(t, env, join(op, cond))
						if !got.hoisted {
							t.Fatal("the join did not run hoisted")
						}
						if fmt.Sprint(got.err) != fmt.Sprint(ref.err) {
							t.Fatalf("error %v, want %v", got.err, ref.err)
						}
						eqRowSets(t, got.rows, ref.rows)
						if got.psi != ref.psi || got.omega != ref.omega {
							t.Errorf("%d Ψ evaluations and %d Ω probes, want %d and %d", got.psi, got.omega, ref.psi, ref.omega)
						}
						matched += len(ref.rows)
					})
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("no row matched")
	}
}

// A row whose slot keys the key test rejects is never walked to. The inner
// table's one record here is one no walk can read (a single column, where
// the schema has two) under the slot keys of "krishnamurthy": the fused scan
// and the hoisted join against "nehru" return no row and no error, and
// against "krishnamurti", which the keys let through, fail on the read.
func TestRejectedRowIsNeverRead(t *testing.T) {
	env := newMockEnv()
	row := types.Tuple{types.NewInt(1), u("krishnamurthy", types.LangEnglish)}
	env.tables["i"] = []types.Tuple{row}
	bad := types.EncodeTuple(types.Tuple{types.NewInt(1)})
	pg := storage.NewPage(types.SlotKeyBytes)
	pg.Add(bad, types.AppendSlotKeys(nil, row, 1, types.Unlabelled))
	env.pages["i"] = mockPages{rows: env.tables["i"], pages: [][][]byte{{bad}}, views: []storage.Page{pg}}
	cols := func(rel string) []plan.ColInfo {
		return []plan.ColInfo{{Rel: rel, Name: "id", Kind: types.KindInt}, {Rel: rel, Name: "n", Kind: types.KindUniText}}
	}
	for _, c := range []struct {
		name string
		read bool
	}{{"nehru", false}, {"krishnamurti", true}} {
		konst := u(c.name, types.LangEnglish)
		env.tables["o"] = []types.Tuple{{types.NewInt(1), konst}}
		scan := runJoin(t, env, &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{scanNode("i", cols("i"))}, Cols: cols("i"),
			Cond: &plan.Psi{L: &plan.ColIdx{Idx: 1, Kind: types.KindUniText}, R: &plan.Const{Val: konst}, Threshold: 1}})
		join := runJoin(t, env, &plan.Node{Op: plan.OpPsiJoin, Children: []*plan.Node{scanNode("o", cols("o")), scanNode("i", cols("i"))},
			Cols: append(cols("o"), cols("i")...), Cond: &plan.Psi{L: &plan.ColIdx{Idx: 1}, R: &plan.ColIdx{Idx: 3}, Threshold: 1}})
		if !join.hoisted {
			t.Fatal("the join did not run hoisted")
		}
		for name, r := range map[string]joinRun{"fused scan": scan, "hoisted join": join} {
			if len(r.rows) != 0 || (r.err != nil) != c.read {
				t.Errorf("%s against %q: %d rows, error %v; want none, and an error only if the keys let the row through", name, c.name, len(r.rows), r.err)
			}
		}
	}
}
