package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// psiRef is Ψ written out from the paper, the reference for every way the
// executor evaluates it: a NULL operand never matches; an operand that is not
// text is an error; a UNITEXT operand is its stored phoneme (converted when
// it was stored without one) and must be in a language the IN list names;
// bare TEXT is converted in the list's first language, English when it is
// empty; the pair matches when its edit distance is at most k. reached
// reports that the pair got as far as the distance, which is what Ψ counts.
func psiRef(l, r types.Value, k int, langs []types.LangID) (match, reached bool, err error) {
	if l.IsNull() || r.IsNull() {
		return false, false, nil
	}
	text := func(v types.Value) bool { return v.Kind() == types.KindText || v.Kind() == types.KindUniText }
	if !text(l) || !text(r) {
		return false, false, fmt.Errorf("exec: LEXEQUAL operands must be text, got %s and %s", l.Kind(), r.Kind())
	}
	reg := phonetic.DefaultRegistry()
	phoneme := func(v types.Value) (string, bool) {
		if v.Kind() == types.KindText {
			lang := types.LangEnglish
			if len(langs) > 0 {
				lang = langs[0]
			}
			return reg.ToPhoneme(types.Compose(v.Text(), lang)), true
		}
		u := v.UniText()
		if len(langs) > 0 && !slices.Contains(langs, u.Lang) {
			return "", false
		}
		return reg.ToPhoneme(u), true
	}
	lp, lok := phoneme(l)
	rp, rok := phoneme(r)
	if !lok || !rok {
		return false, false, nil
	}
	return phonetic.EditDistance(lp, rp) <= k, true, nil
}

// psiNames are the stems the Ψ cases are drawn from, in several scripts.
var psiNames = []struct {
	text string
	lang types.LangID
}{
	{"nehru", types.LangEnglish}, {"neru", types.LangEnglish}, {"Nehroo", types.LangEnglish},
	{"नेहरू", types.LangHindi}, {"நேரு", types.LangTamil}, {"Néhrou", types.LangFrench},
	{"gandhi", types.LangEnglish}, {"गांधी", types.LangHindi}, {"காந்தி", types.LangTamil},
	{"patel", types.LangEnglish}, {"bose", types.LangEnglish}, {"Bosé", types.LangGerman},
}

// psiWord draws a name, now and then with a letter dropped or doubled.
func psiWord(rng *rand.Rand) (string, types.LangID) {
	n := psiNames[rng.Intn(len(psiNames))]
	runes := []rune(n.text)
	switch i := rng.Intn(len(runes)); rng.Intn(4) {
	case 0:
		runes = append(runes[:i], runes[i+1:]...)
	case 1:
		runes = append(runes[:i+1], runes[i:]...)
	}
	return string(runes), n.lang
}

// psiCase is one Ψ filter: column n of table t against a constant, in either
// order, with an IN list and a threshold.
type psiCase struct {
	table     string
	konst     plan.Expr
	colIsLeft bool
	k         int
	langs     []types.LangID
}

func (c psiCase) String() string {
	return fmt.Sprintf("%s.n/left=%v %s k=%d IN %v", c.table, c.colIsLeft, plan.ExprString(c.konst), c.k, c.langs)
}

// psiPlan builds the filtered scan for c: fused, or the generic filter when a
// conjunct (id >= 0) makes the shape unfusible, under a Gather when
// workers > 0.
func psiPlan(c psiCase, colKind types.Kind, workers int, generic bool) *plan.Node {
	cols := []plan.ColInfo{{Rel: c.table, Name: "id", Kind: types.KindInt}, {Rel: c.table, Name: "n", Kind: colKind}}
	scan := &plan.Node{Op: plan.OpSeqScan, Table: c.table, Cols: cols, EstRows: 1, Parallel: workers > 0}
	psi := &plan.Psi{L: &plan.ColIdx{Idx: 1, Kind: colKind}, R: c.konst, Threshold: c.k, Langs: c.langs}
	if !c.colIsLeft {
		psi.L, psi.R = psi.R, psi.L
	}
	var cond plan.Expr = psi
	if generic {
		cond = &plan.AndOr{L: psi, R: &plan.Cmp{Op: sql.OpGe, L: &plan.ColIdx{Idx: 0, Kind: types.KindInt}, R: &plan.Const{Val: types.NewInt(0)}}}
	}
	node := &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{scan}, Cols: cols, Cond: cond}
	if workers > 0 {
		node = &plan.Node{Op: plan.OpGather, Children: []*plan.Node{node}, Cols: cols, Workers: workers}
	}
	return node
}

// fusedScan reports whether it is a table scan with a fused kernel.
func fusedScan(it BatchIter) bool {
	s, ok := it.(*scanIter)
	return ok && len(s.kern.preds) > 0
}

// psiShapes runs fn over every way the executor can run one Ψ filter: serial
// and under a two-worker Gather, fused and generic.
func psiShapes(t *testing.T, fn func(t *testing.T, workers int, generic bool)) {
	for _, workers := range []int{0, 2} {
		for _, generic := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/generic=%v", workers, generic), func(t *testing.T) {
				fn(t, workers, generic)
			})
		}
	}
}

// psiTables fills three tables of one mock heap with the same random names:
// "names" UNITEXT with stored phonemes, "bare" UNITEXT stored without them,
// "notes" bare TEXT; every tenth row is NULL.
func psiTables(rng *rand.Rand, env *mockEnv, rows int) map[string]types.Kind {
	for i := 0; i < rows; i++ {
		id := types.NewInt(int64(i))
		if i%10 == 0 {
			for _, tb := range []string{"names", "bare", "notes"} {
				env.tables[tb] = append(env.tables[tb], types.Tuple{id, types.Null()})
			}
			continue
		}
		text, lang := psiWord(rng)
		env.tables["names"] = append(env.tables["names"], types.Tuple{id, u(text, lang)})
		env.tables["bare"] = append(env.tables["bare"], types.Tuple{id, types.NewUniText(types.Compose(text, lang))})
		env.tables["notes"] = append(env.tables["notes"], types.Tuple{id, types.NewText(text)})
	}
	return map[string]types.Kind{"names": types.KindUniText, "bare": types.KindUniText, "notes": types.KindText}
}

// Every shape of a Ψ filter — fused and generic, serial and parallel, the
// constant on either side — must return the rows the reference picks and
// count the evaluations it counts, over stored phonemes, a column stored
// without them, a TEXT column, a bare TEXT constant, NULLs and IN lists.
func TestPsiCompiledMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	env := newMockEnv()
	colKind := psiTables(rng, env, 300)
	konst := func(v types.Value) plan.Expr { return &plan.Const{Val: v} }
	cases := []psiCase{
		{table: "names", konst: konst(types.NewText("nehru")), colIsLeft: true, k: 2},
		{table: "names", konst: konst(types.NewText("nehru")), k: 2, langs: []types.LangID{types.LangHindi, types.LangEnglish}},
		{table: "names", konst: konst(types.Null()), colIsLeft: true, k: 3},
		{table: "bare", konst: konst(u("gandhi", types.LangEnglish)), k: 2},
		// A constant in a language the IN list excludes never matches.
		{table: "names", konst: konst(u("nehru", types.LangEnglish)), colIsLeft: true, k: 3, langs: []types.LangID{types.LangTamil}},
		{table: "notes", konst: &plan.Call{Kind: sql.FuncUniText, Args: []plan.Expr{konst(types.NewText("Nehru")), konst(types.NewText("english"))}}, k: 1},
	}
	for len(cases) < 40 {
		text, lang := psiWord(rng)
		v := u(text, lang)
		switch rng.Intn(3) {
		case 0:
			v = types.NewText(text)
		case 1:
			v = types.NewUniText(types.Compose(text, lang))
		}
		var langs []types.LangID
		for _, l := range types.AllLangs() {
			if rng.Intn(4) == 0 {
				langs = append(langs, l)
			}
		}
		cases = append(cases, psiCase{table: []string{"names", "bare", "notes"}[rng.Intn(3)], konst: konst(v),
			colIsLeft: rng.Intn(2) == 0, k: rng.Intn(4), langs: langs})
	}
	matched := 0
	for _, c := range cases {
		kv, err := NewEvaluator(env).Eval(c.konst, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []types.Tuple
		var wantEvals int64
		for _, row := range env.tables[c.table] {
			l, r := row[1], kv
			if !c.colIsLeft {
				l, r = r, l
			}
			match, reached, err := psiRef(l, r, c.k, c.langs)
			if err != nil {
				t.Fatal(err)
			}
			if reached {
				wantEvals++
			}
			if match {
				want = append(want, row)
			}
		}
		matched += len(want)
		t.Run(c.String(), func(t *testing.T) {
			psiShapes(t, func(t *testing.T, workers int, generic bool) {
				res := NewResources(context.Background(), 0)
				cur, err := Run(env, psiPlan(c, colKind[c.table], workers, generic), nil, res)
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
				if cur.Stats.PsiEvaluations != wantEvals {
					t.Errorf("PsiEvaluations = %d, want %d", cur.Stats.PsiEvaluations, wantEvals)
				}
				settled(t, cur, res)
			})
		})
	}
	if matched == 0 {
		t.Fatal("no case matched a row: the cases test only the reject path")
	}
}

// A constant that is not text, or fails to evaluate, fails every Ψ shape at
// the first row that reaches the predicate, with the message a per-row
// evaluation has always given — and never sooner: not on an empty table, not
// behind an AND conjunct that is false first.
func TestPsiConstantErrors(t *testing.T) {
	env := newMockEnv()
	env.tables["names"] = []types.Tuple{{types.NewInt(1), types.Null()}, {types.NewInt(2), u("nehru", types.LangEnglish)}}
	env.tables["empty"] = nil
	klingon := &plan.Call{Kind: sql.FuncUniText, Args: []plan.Expr{&plan.Const{Val: types.NewText("x")}, &plan.Const{Val: types.NewText("klingon")}}}
	for _, tc := range []struct {
		c    psiCase
		want string
	}{
		{psiCase{konst: &plan.Const{Val: types.NewInt(5)}, colIsLeft: true}, "exec: LEXEQUAL operands must be text, got UNITEXT and INT"},
		{psiCase{konst: &plan.Const{Val: types.NewFloat(5)}}, "exec: LEXEQUAL operands must be text, got FLOAT and UNITEXT"},
		{psiCase{konst: &plan.Const{Val: types.NewBool(true)}, langs: []types.LangID{types.LangTamil}}, "exec: LEXEQUAL operands must be text, got BOOL and UNITEXT"},
		{psiCase{konst: klingon, colIsLeft: true}, `exec: unknown language "klingon"`},
	} {
		t.Run(tc.c.String(), func(t *testing.T) {
			psiShapes(t, func(t *testing.T, workers int, generic bool) {
				for _, table := range []string{"names", "empty"} {
					c := tc.c
					c.table = table
					rows, err := runErr(env, psiPlan(c, types.KindUniText, workers, generic))
					if table == "empty" {
						if err != nil || len(rows) != 0 {
							t.Errorf("empty table: %d rows, error %v, want none", len(rows), err)
						}
						continue
					}
					// Each Gather worker a failing row reaches reports it.
					if err == nil || strings.Trim(strings.ReplaceAll(err.Error(), tc.want, ""), "\n") != "" {
						t.Errorf("error = %v, want %q", err, tc.want)
					}
				}
				// Behind a conjunct that is false first, no row reaches Ψ.
				c := tc.c
				c.table = "names"
				node := psiPlan(c, types.KindUniText, workers, false)
				filter := node
				if workers > 0 {
					filter = node.Children[0]
				}
				filter.Cond = &plan.AndOr{L: &plan.Const{Val: types.NewBool(false)}, R: filter.Cond}
				if rows, err := runErr(env, node); err != nil || len(rows) != 0 {
					t.Errorf("behind a false conjunct: %d rows, error %v, want none", len(rows), err)
				}
			})
		})
	}
}

func runErr(env Env, node *plan.Node) ([]types.Tuple, error) {
	cur, err := Run(env, node, nil, nil)
	if err != nil {
		return nil, err
	}
	return cur.All()
}

// omegaRef is omegaWalk with the rules Ω shares with Ψ in front: a NULL
// operand never matches, an operand that is not text is an error. reached
// reports that the pair got as far as the probe, which is what Ω counts.
func omegaRef(net *wordnet.Net, l, r types.Value, langs []types.LangID) (match, reached bool, err error) {
	if l.IsNull() || r.IsNull() {
		return false, false, nil
	}
	text := func(v types.Value) bool { return v.Kind() == types.KindText || v.Kind() == types.KindUniText }
	if !text(l) || !text(r) {
		return false, false, fmt.Errorf("exec: SEMEQUAL operands must be text, got %s and %s", l.Kind(), r.Kind())
	}
	return omegaWalk(net, l, r, langs), true, nil
}

// FuzzPsiOmegaAgree checks the compiled Ψ and Ω predicates on both of their
// readers — the fused kernel's, over a row laid out as a heap keeps it, whose
// slot keys and record views it reads in place, and the generic filter's, over the decoded
// Value (constPred.eval) — against the references, for one column value and
// one constant of any kind, language, IN list and order, Ψ at any threshold,
// Ω compiled with and without its filters. A row whose column synset has
// its top bit set is written with no taxonomy (Unlabelled), and one with the
// next bit set is labelled as a homonym is (ManySynsets), so the fused
// reader meets every kind of label.
func FuzzPsiOmegaAgree(f *testing.F) {
	f.Add(false, "nehru", uint8(1), uint8(1), "neru", uint8(1), uint8(3), uint8(2), uint8(0), true, uint16(0), uint16(0))
	f.Add(false, "नेहरू", uint8(2), uint8(2), "Nehru", uint8(1), uint8(0), uint8(2), uint8(6), false, uint16(0), uint16(0))
	f.Add(false, "Bosé", uint8(6), uint8(3), "bose", uint8(5), uint8(1), uint8(1), uint8(32), true, uint16(0), uint16(0))
	f.Add(false, "x", uint8(1), uint8(4), "x", uint8(1), uint8(3), uint8(0), uint8(0), false, uint16(0), uint16(0))
	f.Add(false, "", uint8(0), uint8(0), "", uint8(0), uint8(2), uint8(9), uint8(255), true, uint16(0), uint16(0))
	f.Add(false, "नेहरू", uint8(2), uint8(3), "नेहरू", uint8(2), uint8(1), uint8(0), uint8(2), true, uint16(0), uint16(0))
	f.Add(true, "", uint8(1), uint8(1), "", uint8(1), uint8(3), uint8(1), uint8(0), true, uint16(700), uint16(0))
	f.Add(true, "U", uint8(3), uint8(2), "", uint8(5), uint8(1), uint8(0), uint8(16), false, uint16(0), uint16(1200))
	f.Add(true, "", uint8(5), uint8(1), "U", uint8(1), uint8(2), uint8(1), uint8(16), true, uint16(2900), uint16(0))
	f.Add(true, "ḥistöry", uint8(1), uint8(1), "", uint8(1), uint8(4), uint8(0), uint8(0), true, uint16(5), uint16(5))
	f.Add(true, "", uint8(1), uint8(0), "", uint8(2), uint8(1), uint8(1), uint8(1), false, uint16(40), uint16(2))
	f.Add(true, "nowhere", uint8(1), uint8(1), "", uint8(1), uint8(3), uint8(1), uint8(0), true, uint16(0), uint16(40))
	f.Add(true, "", uint8(1), uint8(1), "", uint8(1), uint8(3), uint8(1), uint8(0), true, uint16(0x8000+5), uint16(5)) // unlabelled
	f.Add(true, "U", uint8(1), uint8(2), "", uint8(1), uint8(3), uint8(0), uint8(0), true, uint16(0x8000), uint16(0))
	f.Add(true, "", uint8(1), uint8(1), "", uint8(1), uint8(3), uint8(1), uint8(0), true, uint16(0x4000+1621), uint16(5)) // a homonym's label, synset 5 itself
	f.Add(true, "U", uint8(1), uint8(2), "", uint8(1), uint8(3), uint8(0), uint8(0), false, uint16(0x4000+7), uint16(0))
	reg := phonetic.DefaultRegistry()
	env := newMockEnv()
	env.net = omegaNet()
	// word is an operand's text: the fuzzed text or, for Ω when that is at
	// most one byte, a word form of synset syn — in lang when the net has it,
	// else in English, upper-cased when the byte is 'U' — so that Ω pairs
	// can match.
	word := func(omega bool, text string, lang types.LangID, syn uint16) string {
		if !omega || len(text) > 1 {
			return text
		}
		id := wordnet.SynsetID(int(syn) % env.net.NumSynsets())
		w := env.net.Lemma(lang, id)
		if w == "" {
			w = env.net.Lemma(types.LangEnglish, id)
		}
		if text == "U" {
			w = strings.ToUpper(w)
		}
		return w
	}
	// value builds an operand: NULL, UNITEXT stored with its phoneme, UNITEXT
	// stored without, bare TEXT, or INT.
	value := func(text string, lang types.LangID, kind uint8) types.Value {
		u := types.Compose(text, lang)
		switch kind % 5 {
		case 0:
			return types.Null()
		case 1:
			return types.NewUniText(reg.Materialize(u))
		case 2:
			return types.NewUniText(u)
		case 3:
			return types.NewText(text)
		}
		return types.NewInt(int64(len(text)))
	}
	f.Fuzz(func(t *testing.T, omega bool, colText string, colLang, colKind uint8, konstText string, konstLang, konstKind, k, langMask uint8, colIsLeft bool, colSyn, konstSyn uint16) {
		if len(colText) > 48 || len(konstText) > 48 {
			return
		}
		cl, kl := types.LangID(colLang%7), types.LangID(konstLang%7)
		col := value(word(omega, colText, cl, colSyn), cl, colKind)
		konst := value(word(omega, konstText, kl, konstSyn), kl, konstKind)
		var langs []types.LangID
		for i, l := range types.AllLangs() {
			if langMask&(1<<i) != 0 {
				langs = append(langs, l)
			}
		}
		var ll, rr plan.Expr = &plan.ColIdx{Idx: 0}, &plan.Const{Val: konst}
		l, r := col, konst
		if !colIsLeft {
			ll, rr, l, r = rr, ll, r, l
		}
		var x plan.Expr = &plan.Psi{L: ll, R: rr, Threshold: int(k % 6), Langs: langs}
		want, reached, wantErr := psiRef(l, r, int(k%6), langs)
		rows := 0.0
		if omega {
			// An Ω probe compiles its filters for a large scan only.
			x, rows = &plan.Omega{L: ll, R: rr, Langs: langs}, float64(k%2)*1e9
			want, reached, wantErr = omegaRef(env.net, l, r, langs)
		}
		ev := &evaluator{env: env, stats: &RunStats{}, preds: &stmtPreds{}}
		c, _ := ev.bindConst(x, ll, rr, rows)
		p := c.(*constPred)
		check := func(path string, got bool, err error) {
			t.Helper()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, want %v (col %v, const %v, IN %v)", path, err, wantErr, col, konst, langs)
			}
			if got != want {
				t.Fatalf("%s: %s(%v, %v) k=%d IN %v = %v, want %v", path, map[bool]string{false: "Ψ", true: "Ω"}[omega], l, r, k%6, langs, got, want)
			}
			// The operator's own counter counts a reached pair; the other
			// counts nothing.
			wantPsi, wantOmega := map[bool]int64{true: 1}[reached], int64(0)
			if omega {
				wantPsi, wantOmega = wantOmega, wantPsi
			}
			if ev.stats.PsiEvaluations != wantPsi || ev.stats.OmegaProbes != wantOmega {
				t.Fatalf("%s: %d Ψ evaluations and %d Ω probes counted, want %d and %d", path,
					ev.stats.PsiEvaluations, ev.stats.OmegaProbes, wantPsi, wantOmega)
			}
			ev.stats.PsiEvaluations, ev.stats.OmegaProbes = 0, 0
		}
		cols := []plan.ColInfo{{Kind: col.Kind()}}
		labels := labeller{net: env.net}
		switch {
		case colSyn&0x8000 != 0:
			labels.verified = func(int) uint32 { return types.Unlabelled }
		case colSyn&0x4000 != 0:
			labels.verified = func(int) uint32 { return types.ManySynsets }
		}
		got, err := matchRow(ev.fusedKernel(p, cols), labels, cols, types.Tuple{col})
		check("record", got, err)
		got, err = p.eval(ev, types.Tuple{col})
		check("value", got, err)
	})
}

// matchRow runs kernel k's page loop (scanPage: selectPage, then finish) on
// row as the one live row but NULLs, which the loop selects as key-less, of
// a heap page of a table with columns cols, between dead copies of it, its
// slot labelled by labels.
func matchRow(k *pageKernel, labels labeller, cols []plan.ColInfo, row types.Tuple) (bool, error) {
	null := make(types.Tuple, len(row))
	for i := range null {
		null[i] = types.Null()
	}
	h, err := heapOf(labels, schemaKinds(cols), []types.Tuple{row, null, row, null, row}, func(i int) bool { return i%4 == 0 })
	if err != nil {
		return false, err
	}
	var b Batch
	_, err = h.Scan().NextPage(func(pg storage.Page) error {
		_, err := k.scanPage(&pg, 0, &recordSource{}, &b, nil, math.MaxInt)
		return err
	})
	if len(b.Rows) > 1 {
		return false, fmt.Errorf("%d rows matched: a dead slot or a NULL did", len(b.Rows))
	}
	return len(b.Rows) == 1, err
}

// A stored phoneme's rune count is exact — the length filter and Myers'
// early exit both rely on it — and past the 254 runes its byte holds the
// readers match the phoneme whole: 300-rune phonemes against a
// 300-rune pattern at k = 1, through the fused kernel and the hoisted join,
// agree with phonetic.EditDistance.
func TestPsiStoredLongPhoneme(t *testing.T) {
	pattern := strings.Repeat("kɾiʃ", 75)
	// edit replaces the runes [at, at+n) of the pattern with with.
	edit := func(at, n int, with string) string {
		r := []rune(pattern)
		return string(r[:at]) + with + string(r[at+n:])
	}
	twice := []rune(edit(10, 1, "a"))
	twice[200] = 'a'
	cands := []string{
		pattern,                       // distance 0
		edit(150, 1, "a"),             // one substitution
		edit(0, 1, "a"),               // one at the front
		edit(150, 0, "a"),             // one insertion: 301 runes
		edit(150, 1, ""),              // one deletion: 299 runes
		string(twice),                 // two substitutions
		string([]rune(pattern)[:255]), // a count that just overflows its byte
		string([]rune(pattern)[:254]), // one that just fits
	}
	env := newMockEnv()
	col := []plan.ColInfo{{Rel: "t", Name: "n", Kind: types.KindUniText}}
	konst := types.NewUniText(types.UniText{Text: "x", Lang: types.LangEnglish, Phoneme: pattern})
	var rows []types.Tuple
	want := 0
	for _, c := range cands {
		rows = append(rows, types.Tuple{types.NewUniText(types.UniText{Text: "x", Lang: types.LangEnglish, Phoneme: c})})
		if phonetic.EditDistance(pattern, c) <= 1 {
			want++
		}
	}
	if want != 5 {
		t.Fatalf("%d candidates within one edit, want 5", want)
	}
	ev := &evaluator{env: env, stats: &RunStats{}, preds: &stmtPreds{}}
	x := &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.Const{Val: konst}, Threshold: 1}
	c, _ := ev.bindConst(x, x.L, x.R, 0)
	kern := ev.fusedKernel(c.(*constPred), col)
	for i, row := range rows {
		got, err := matchRow(kern, env.labels(), col, row)
		if wantMatch := phonetic.EditDistance(pattern, cands[i]) <= 1; err != nil || got != wantMatch {
			t.Errorf("kernel: candidate %d (%d runes): match %v, %v; EditDistance says %v", i, len([]rune(cands[i])), got, err, wantMatch)
		}
	}
	// The join: the pattern as the one outer row, the candidates as the inner.
	env.tables["o"] = []types.Tuple{{konst}}
	env.tables["t"] = rows
	outer := []plan.ColInfo{{Rel: "o", Name: "n", Kind: types.KindUniText}}
	join := &plan.Node{Op: plan.OpPsiJoin, Cols: append(append([]plan.ColInfo(nil), outer...), col...),
		Cond:     &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.ColIdx{Idx: 1}, Threshold: 1},
		Children: []*plan.Node{scanNode("o", outer), scanNode("t", col)}}
	got, err := runErr(env, join)
	if err != nil || len(got) != want {
		t.Errorf("join: %d matches, %v; EditDistance says %d", len(got), err, want)
	}
}
