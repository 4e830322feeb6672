package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

// sentinels labels row i Unlabelled (written with no taxonomy) when i%4 is
// 1 and ManySynsets (a homonym's label) when it is 3: labels verified from
// the text, whatever the text names.
func sentinels(i int) uint32 {
	switch i % 4 {
	case 1:
		return types.Unlabelled
	case 3:
		return types.ManySynsets
	}
	return 0
}

// labelTable fills table "i" of env, columns (id, n), with a row of every
// kind of label: words of one synset in each of net's languages, "History"
// in three cases, an unknown word, a Hindi word (net lacks Hindi), NULL, and
// phonemes of no rune and of 255 or more — and gives every second row a
// sentinel (sentinels).
func labelTable(env *mockEnv, rng *rand.Rand, rows int) {
	net := env.net
	fixed := []types.Value{
		u("History", types.LangEnglish), u("history", types.LangEnglish), u("HISTORY", types.LangEnglish),
		u("historiography", types.LangEnglish), u("tamil:history", types.LangTamil), u("zorkmid", types.LangEnglish),
		u("history", types.LangHindi), types.Null(),
		types.NewUniText(types.Compose("discipline", types.LangEnglish)),
		types.NewUniText(types.UniText{Text: "Historiography", Lang: types.LangEnglish, Phoneme: keyTestLongPhoneme}),
	}
	env.tables["i"] = nil
	for i := range rows {
		var v types.Value
		if i < len(fixed) {
			v = fixed[i]
		} else {
			text, lang := omegaWord(rng, net)
			switch rng.Intn(8) {
			case 0:
				v = types.Null()
			case 1:
				v = types.NewUniText(types.Compose(text, lang)) // no phoneme
			default:
				v = u(text, lang)
			}
		}
		env.tables["i"] = append(env.tables["i"], types.Tuple{types.NewInt(int64(i)), v})
	}
	env.verified = sentinels
}

// Every kind of label — a synset's, NoSynsets (an unknown word, a language
// the taxonomy lacks), ManySynsets (a homonym's), Unlabelled (a row written
// with no taxonomy) — with NULLs, case changes and phonemes a Ψ key test
// could not take, gives the parent-pointer walk's answer and the same Ω
// count through the fused scan, the generic filter and the hoisted join, at
// 1, 2 and 8 workers, with the constant on either side, with and without an
// IN list, and for constants of one synset and of none.
func TestOmegaLabelsEveryShape(t *testing.T) {
	env := newMockEnv()
	env.net = omegaNet()
	labelTable(env, rand.New(rand.NewSource(5)), 400)
	consts := []types.Value{
		types.NewText("History"), u("history", types.LangEnglish),
		types.NewText("zorkmid"), types.NewText("discipline"), u("entity", types.LangEnglish), types.Null(),
	}
	matched := 0
	for _, konst := range consts {
		for _, colIsLeft := range []bool{true, false} {
			for _, langs := range [][]types.LangID{nil, {types.LangEnglish, types.LangTamil}} {
				c := omegaCase{table: "i", konst: konst, colIsLeft: colIsLeft, langs: langs}
				var want []types.Tuple
				var wantProbes int64
				for _, row := range env.tables["i"] {
					l, r := row[1], konst
					if !colIsLeft {
						l, r = r, l
					}
					if !row[1].IsNull() && !konst.IsNull() {
						wantProbes++
					}
					if omegaWalk(env.net, l, r, langs) {
						want = append(want, row)
					}
				}
				matched += len(want)
				for _, workers := range []int{0, 2, 8} {
					for _, generic := range []bool{false, true} {
						t.Run(fmt.Sprintf("%v/workers=%d/generic=%v", c, workers, generic), func(t *testing.T) {
							res := NewResources(context.Background(), 0)
							cur, err := Run(env, omegaPlan(c, types.KindUniText, 1e9, workers, generic), nil, res)
							if err != nil {
								t.Fatal(err)
							}
							got, err := cur.All()
							if err != nil {
								t.Fatal(err)
							}
							eqRowSets(t, got, want)
							if cur.Stats.OmegaProbes != wantProbes {
								t.Errorf("OmegaProbes = %d, want %d", cur.Stats.OmegaProbes, wantProbes)
							}
							settled(t, cur, res)
						})
					}
				}
			}
		}
	}
	// The constants as the outer side of a hoisted join over the table.
	env.tables["o"] = nil
	for i, k := range consts {
		env.tables["o"] = append(env.tables["o"], types.Tuple{types.NewInt(int64(i)), k})
	}
	for _, outerLeft := range []bool{false, true} {
		for _, langs := range [][]types.LangID{nil, {types.LangEnglish, types.LangTamil}} {
			cond := joinCond(true, outerLeft, 1, 1, 0, langs)
			var want []types.Tuple
			for _, o := range env.tables["o"] {
				for _, i := range env.tables["i"] {
					l, r := i[1], o[1]
					if outerLeft {
						l, r = r, l
					}
					if omegaWalk(env.net, l, r, langs) {
						want = append(want, joinedTuple(o, i))
					}
				}
			}
			matched += len(want)
			for shape := innerShape(0); shape < innerShapes; shape++ {
				if shape == innerFiltered || shape == innerMaterializedFilter {
					continue // the filter drops rows the walk keeps
				}
				c := joinCase{outer: "o", inner: "i", cond: cond, shape: shape}
				for _, workers := range []int{0, 2, 8} {
					t.Run(fmt.Sprintf("%v/workers=%d", c, workers), func(t *testing.T) {
						node := joinPlan(c, plan.OpOmegaJoin, cond, workers > 0)
						if workers > 0 {
							node = &plan.Node{Op: plan.OpGather, Children: []*plan.Node{node}, Cols: joinCols, Workers: workers}
						}
						r := runJoin(t, env, node)
						if workers == 0 && !r.hoisted {
							t.Fatal("the join did not run hoisted")
						}
						if r.err != nil {
							t.Fatal(r.err)
						}
						eqRowSets(t, r.rows, want)
					})
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("no row matched")
	}
}

// Ω's select loop decides every row whose slot holds keys on its label,
// whatever its phoneme: a row whose phoneme has no rune, or 255 or more,
// which Ψ's key test cannot take, is key-tested and counted in place and
// selected only when its label passes, page by page, and the scan returns
// the walk's rows.
func TestOmegaSelectDecidesByLabel(t *testing.T) {
	net := omegaNet()
	cols := []plan.ColInfo{{Rel: "t", Name: "id", Kind: types.KindInt}, {Rel: "t", Name: "name", Kind: types.KindUniText}}
	env := &heapEnv{mockEnv: newMockEnv(), heaps: map[string]*storage.Heap{}}
	env.net = net
	rng := rand.New(rand.NewSource(9))
	var rows []types.Tuple
	for i := range 900 {
		text, lang := omegaWord(rng, net)
		ph := ""
		if i%2 == 1 {
			ph = strings.Repeat("ə", 255+i%7)
		}
		rows = append(rows, types.Tuple{types.NewInt(int64(i)), types.NewUniText(types.UniText{Text: text, Lang: lang, Phoneme: ph})})
	}
	h, err := heapOf(env.labels(), schemaKinds(cols), rows, func(i int) bool { return i%7 == 3 })
	if err != nil {
		t.Fatal(err)
	}
	env.heaps["t"], env.tables["t"] = h, rows
	konst := types.NewUniText(types.Compose("entity", types.LangEnglish))
	node := &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{scanNode("t", cols)}, Cols: cols,
		Cond: &plan.Omega{L: &plan.ColIdx{Idx: 1, Kind: types.KindUniText}, R: &plan.Const{Val: konst}}}
	cur, err := Run(env, node, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	sc, ok := cur.src.(*scanIter)
	if !ok || len(sc.kern.probes) != 1 {
		t.Fatal("the filter did not fuse with Ω's key test")
	}
	k, probe := sc.kern, sc.kern.probes[0]
	selected, passed := 0, 0
	it := h.ScanRange(0, storage.PageID(h.NumPages()))
	for more := true; more; {
		if more, err = it.NextPage(func(pg storage.Page) error {
			_, _, tested, err := k.selectPage(&pg, 0, sc.src, math.MaxInt)
			if err != nil {
				return err
			}
			var want []int32
			live := int32(0)
			for i := range pg.Len() {
				keys, ok := pg.Keys(i)
				if !ok {
					continue
				}
				live++
				if probe.PassesLabel(types.SlotOmegaKeys(keys)) {
					want = append(want, int32(i))
				}
			}
			var got []int32
			for _, r := range k.sel {
				got = append(got, int32(r.at&(keyedBit-1)))
			}
			if fmt.Sprint(got) != fmt.Sprint(want) || tested != live {
				return fmt.Errorf("selected slots %v after %d key tests, want %v after %d", got, tested, want, live)
			}
			selected, passed = selected+len(got), passed+len(want)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if passed == 0 || passed == len(rows) {
		t.Fatalf("%d of %d rows passed: the test decides nothing", passed, len(rows))
	}
	var want []types.Tuple
	for i, row := range rows {
		if i%7 != 3 && omegaWalk(net, row[1], konst, nil) {
			want = append(want, row)
		}
	}
	got, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	eqRowSets(t, got, want)
}
