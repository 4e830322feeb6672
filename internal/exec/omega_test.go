package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

var (
	omegaLangs = []types.LangID{types.LangEnglish, types.LangTamil, types.LangFrench}
	// anyLangs adds a language the taxonomy lacks.
	anyLangs = []types.LangID{types.LangEnglish, types.LangTamil, types.LangFrench, types.LangHindi}
)

func omegaNet() *wordnet.Net {
	return wordnet.Generate(wordnet.Config{Synsets: 3000, Seed: 11, Langs: omegaLangs})
}

// omegaWalk is Ω by parent pointers, the reference for every way the
// executor evaluates it: a NULL operand fails, TEXT reads as English, the IN
// list restricts the left operand's language.
func omegaWalk(net *wordnet.Net, l, r types.Value, langs []types.LangID) bool {
	if l.IsNull() || r.IsNull() {
		return false
	}
	uni := func(v types.Value) types.UniText {
		if v.Kind() == types.KindText {
			return types.Compose(v.Text(), types.LangEnglish)
		}
		return v.UniText()
	}
	lu, ru := uni(l), uni(r)
	if len(langs) > 0 && !slices.Contains(langs, lu.Lang) {
		return false
	}
	for _, s := range net.SynsetsOf(lu.Lang, lu.Text) {
		for _, root := range net.SynsetsOf(ru.Lang, ru.Text) {
			if net.IsDescendant(s, root) {
				return true
			}
		}
	}
	return false
}

// omegaWord draws a word the taxonomy may or may not know: a word form of a
// synset in one of its languages or in Hindi (which it lacks), an unknown
// word, either one in upper case now and then. Low synset IDs sit near the
// root, so drawing them often keeps closures large and matches common.
func omegaWord(rng *rand.Rand, net *wordnet.Net) (string, types.LangID) {
	lang := anyLangs[rng.Intn(len(anyLangs))]
	id := wordnet.SynsetID(rng.Intn(net.NumSynsets()))
	if rng.Intn(3) == 0 {
		id = wordnet.SynsetID(rng.Intn(60))
	}
	text := net.Lemma(lang, id)
	if forms := net.WordForms(types.LangEnglish, id); lang == types.LangHindi || rng.Intn(8) == 0 {
		text = forms[rng.Intn(len(forms))] + []string{"", "zz"}[rng.Intn(2)]
	}
	switch rng.Intn(6) {
	case 0:
		text = strings.ToUpper(text[:1]) + text[1:]
	case 1:
		text = strings.ToUpper(text)
	}
	return text, lang
}

// omegaCase is one Ω filter: column cat of table doc (UNITEXT) or notes
// (TEXT) against a constant, in either order, with an IN list.
type omegaCase struct {
	table     string
	konst     types.Value
	colIsLeft bool
	langs     []types.LangID
}

func (c omegaCase) String() string {
	return fmt.Sprintf("%s.cat/left=%v %v IN %v", c.table, c.colIsLeft, c.konst, c.langs)
}

// omegaPlan builds the filtered scan for c: fused, or the generic filter
// when a conjunct (id >= 0) makes the shape unfusible, under a Gather when
// workers > 0. est is the scan's row estimate, the bound on the probe's filters.
func omegaPlan(c omegaCase, colKind types.Kind, est float64, workers int, generic bool) *plan.Node {
	cols := []plan.ColInfo{{Rel: c.table, Name: "id", Kind: types.KindInt}, {Rel: c.table, Name: "cat", Kind: colKind}}
	scan := &plan.Node{Op: plan.OpSeqScan, Table: c.table, Cols: cols, EstRows: est, Parallel: workers > 0}
	om := &plan.Omega{L: &plan.ColIdx{Idx: 1, Kind: colKind}, R: &plan.Const{Val: c.konst}, Langs: c.langs}
	if !c.colIsLeft {
		om.L, om.R = om.R, om.L
	}
	var cond plan.Expr = om
	if generic {
		cond = &plan.AndOr{L: om, R: &plan.Cmp{Op: sql.OpGe, L: &plan.ColIdx{Idx: 0, Kind: types.KindInt}, R: &plan.Const{Val: types.NewInt(0)}}}
	}
	node := &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{scan}, Cols: cols, Cond: cond}
	if workers > 0 {
		node = &plan.Node{Op: plan.OpGather, Children: []*plan.Node{node}, Cols: cols, Workers: workers}
	}
	return node
}

// omegaShapes runs fn over every way the executor can run one Ω filter:
// serial and under a two-worker Gather, fused and generic, with a scan
// estimate that admits the probe's filters and one so small that any closure
// compiles to the interval labels alone.
func omegaShapes(t *testing.T, fn func(t *testing.T, est float64, workers int, generic bool)) {
	for _, workers := range []int{0, 2} {
		for _, generic := range []bool{false, true} {
			for _, est := range []float64{1e9, 1} {
				t.Run(fmt.Sprintf("workers=%d/generic=%v/est=%g", workers, generic, est), func(t *testing.T) {
					fn(t, est, workers, generic)
				})
			}
		}
	}
}

// Every compiled form of an Ω filter, and the generic evaluator beside them,
// must return the rows the parent-pointer walk picks and count the probes it
// counts: one per row whose column value is non-NULL text.
func TestOmegaCompiledMatchesWalk(t *testing.T) {
	net := omegaNet()
	env := newMockEnv()
	env.net = net
	// The paper's footnote-2 branch first, in every case and language, then
	// random words.
	fixed := []types.UniText{
		types.Compose("history", types.LangEnglish), types.Compose("Historiography", types.LangEnglish),
		types.Compose("tamil:history", types.LangTamil), types.Compose("FRENCH:HISTORY", types.LangFrench),
		types.Compose("discipline", types.LangEnglish), types.Compose("science", types.LangEnglish),
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		id := types.NewInt(int64(i))
		if i%10 == 0 {
			env.tables["doc"] = append(env.tables["doc"], types.Tuple{id, types.Null()})
			env.tables["notes"] = append(env.tables["notes"], types.Tuple{id, types.Null()})
			continue
		}
		text, lang := omegaWord(rng, net)
		if i <= len(fixed) {
			text, lang = fixed[i-1].Text, fixed[i-1].Lang
		}
		env.tables["doc"] = append(env.tables["doc"], types.Tuple{id, types.NewUniText(types.Compose(text, lang))})
		text, _ = omegaWord(rng, net)
		if i <= len(fixed) {
			text = fixed[i-1].Text
		}
		env.tables["notes"] = append(env.tables["notes"], types.Tuple{id, types.NewText(text)})
	}
	colKind := map[string]types.Kind{"doc": types.KindUniText, "notes": types.KindText}
	cases := []omegaCase{
		// The paper's Figure 4: 'History' folds to the English "history".
		{table: "doc", konst: types.NewText("History"), colIsLeft: true, langs: omegaLangs},
		{table: "doc", konst: types.Null(), colIsLeft: true},
		{table: "doc", konst: types.NewText("zorkmid"), colIsLeft: false},
		// The constant on the left: its ancestors, itself included.
		{table: "doc", konst: types.NewText("historiography"), colIsLeft: false},
		{table: "notes", konst: types.NewUniText(types.Compose("TAMIL:historiography", types.LangTamil)), colIsLeft: false, langs: []types.LangID{types.LangTamil}},
		{table: "notes", konst: types.NewUniText(types.Compose("french:history", types.LangFrench)), colIsLeft: true, langs: omegaLangs[:1]},
	}
	for len(cases) < 40 {
		text, lang := omegaWord(rng, net)
		k := types.NewUniText(types.Compose(text, lang))
		if rng.Intn(4) == 0 {
			k = types.NewText(text)
		}
		var langs []types.LangID
		for _, l := range anyLangs {
			if rng.Intn(3) == 0 {
				langs = append(langs, l)
			}
		}
		cases = append(cases, omegaCase{table: []string{"doc", "notes"}[rng.Intn(4)/3], konst: k, colIsLeft: rng.Intn(2) == 0, langs: langs})
	}
	matched := 0
	for _, c := range cases {
		var want []types.Tuple
		var wantProbes int64
		for _, row := range env.tables[c.table] {
			l, r := row[1], c.konst
			if !c.colIsLeft {
				l, r = r, l
			}
			if !row[1].IsNull() && !c.konst.IsNull() {
				wantProbes++
			}
			if omegaWalk(net, l, r, c.langs) {
				want = append(want, row)
			}
		}
		matched += len(want)
		t.Run(c.String(), func(t *testing.T) {
			omegaShapes(t, func(t *testing.T, est float64, workers int, generic bool) {
				res := NewResources(context.Background(), 0)
				cur, err := Run(env, omegaPlan(c, colKind[c.table], est, workers, generic), nil, res)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 0 && fusedScan(cur.src) == generic {
					t.Fatalf("root operator is %T, generic=%v", cur.src, generic)
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
		})
	}
	if matched == 0 {
		t.Fatal("no case matched a row: the cases test only the reject path")
	}
}

// A non-text operand fails every Ω shape with the one message evalOmega has
// always given, naming the operands in the order the query wrote them.
func TestOmegaOperandKindErrors(t *testing.T) {
	env := newMockEnv()
	env.net = omegaNet()
	env.tables["nums"] = []types.Tuple{{types.NewInt(1), types.Null()}, {types.NewInt(2), types.NewInt(7)}}
	env.tables["doc"] = []types.Tuple{{types.NewInt(1), types.NewUniText(types.Compose("history", types.LangEnglish))}}
	for _, tc := range []struct {
		c       omegaCase
		colKind types.Kind
		want    string
	}{
		{omegaCase{table: "nums", konst: types.NewText("history"), colIsLeft: true}, types.KindInt,
			"exec: SEMEQUAL operands must be text, got INT and TEXT"},
		{omegaCase{table: "nums", konst: types.NewUniText(types.Compose("history", types.LangEnglish))}, types.KindInt,
			"exec: SEMEQUAL operands must be text, got UNITEXT and INT"},
		{omegaCase{table: "doc", konst: types.NewInt(5), colIsLeft: true}, types.KindUniText,
			"exec: SEMEQUAL operands must be text, got UNITEXT and INT"},
		{omegaCase{table: "doc", konst: types.NewFloat(5)}, types.KindUniText,
			"exec: SEMEQUAL operands must be text, got FLOAT and UNITEXT"},
	} {
		t.Run(tc.c.String(), func(t *testing.T) {
			omegaShapes(t, func(t *testing.T, est float64, workers int, generic bool) {
				cur, err := Run(env, omegaPlan(tc.c, tc.colKind, est, workers, generic), nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				_, err = cur.All()
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error = %v, want %q", err, tc.want)
				}
			})
		})
	}
}

// The compiled operand is charged to the query once — by the first Gather
// worker to compile it, shared by the rest — and released when the scan
// closes, on every way a statement ends. The fused scan tests the keyed
// column's labels, so its probe has no filters at any estimate; the generic
// filter's has them when the estimate admits them.
func TestOmegaCompiledOperandCharged(t *testing.T) {
	net := omegaNet()
	env := newMockEnv()
	env.net = net
	for i := 0; i < 3000; i++ {
		text := net.Lemma(types.LangTamil, wordnet.SynsetID(i))
		env.tables["doc"] = append(env.tables["doc"], types.Tuple{types.NewInt(int64(i)), types.NewUniText(types.Compose(text, types.LangTamil))})
	}
	history := types.Compose("history", types.LangEnglish)
	c := omegaCase{table: "doc", konst: types.NewUniText(history), colIsLeft: true}
	for _, est := range []float64{1e9, 1} {
		for _, shape := range []struct {
			workers int
			generic bool
		}{{0, false}, {2, false}, {0, true}, {2, true}} {
			workers, generic := shape.workers, shape.generic
			want := net.CompileRight(history, nil, 0).MemBytes()
			if generic {
				want = net.CompileRight(history, nil, int(est)).MemBytes()
			}
			node := omegaPlan(c, types.KindUniText, est, workers, generic)
			t.Run(fmt.Sprintf("est=%g/workers=%d/generic=%v", est, workers, generic), func(t *testing.T) {
				res := NewResources(context.Background(), 0)
				cur, err := Run(env, node, nil, res)
				if err != nil {
					t.Fatal(err)
				}
				if got := res.MemBytes(); got != want {
					t.Errorf("MemBytes after build = %d, want the compiled operand's %d, charged once", got, want)
				}
				if err := cur.Close(); err != nil {
					t.Fatal(err)
				}
				settled(t, cur, res)
				everyExit(t, env, node, 100, func(t *testing.T, rows []types.Tuple, _ *Cursor, _ *ExecStats) {
					if len(rows) == 0 {
						t.Error("TC(history) holds no document")
					}
				})
			})
		}
	}
}

// A memory budget the compiled operand does not fit fails the statement with
// ErrMemoryLimit before a row is read, and leaves nothing charged: the fused
// scan's probe on labels, and the generic filter's with its filters.
func TestOmegaCompiledOperandOverBudget(t *testing.T) {
	net := omegaNet()
	env := newMockEnv()
	env.net = net
	env.tables["doc"] = []types.Tuple{{types.NewInt(1), types.NewUniText(types.Compose("history", types.LangEnglish))}}
	root := types.Compose(net.Lemma(types.LangEnglish, 0), types.LangEnglish)
	c := omegaCase{table: "doc", konst: types.NewUniText(root), colIsLeft: true}
	for _, workers := range []int{0, 2} {
		for _, generic := range []bool{false, true} {
			need := net.CompileRight(root, nil, 0).MemBytes()
			if generic {
				need = net.CompileRight(root, nil, 1e9).MemBytes()
			}
			t.Run(fmt.Sprintf("workers=%d/generic=%v", workers, generic), func(t *testing.T) {
				res := NewResources(context.Background(), need-1)
				_, err := Run(env, omegaPlan(c, types.KindUniText, 1e9, workers, generic), nil, res)
				if !errors.Is(err, ErrMemoryLimit) {
					t.Fatalf("Run under a %d-byte budget = %v, want ErrMemoryLimit", need-1, err)
				}
				if b := res.MemBytes(); b != 0 {
					t.Errorf("MemBytes after the failed build = %d, want 0", b)
				}
			})
		}
	}
}
