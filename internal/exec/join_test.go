package exec

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
)

// joinCols is the joint schema of the join tests: outer table (id, n), then
// inner table (id, n). The n columns mix NULL, UNITEXT stored with and
// without its phoneme, and bare TEXT; id is an INT or NULL, the non-text
// operand.
var joinCols = []plan.ColInfo{
	{Rel: "o", Name: "id", Kind: types.KindInt}, {Rel: "o", Name: "n", Kind: types.KindUniText},
	{Rel: "i", Name: "id", Kind: types.KindInt}, {Rel: "i", Name: "n", Kind: types.KindUniText},
}

// joinTable fills table name with rows rows whose text is drawn by word.
func joinTable(rng *rand.Rand, env *mockEnv, name string, rows int, word func() (string, types.LangID)) {
	env.tables[name] = []types.Tuple{}
	for i := 0; i < rows; i++ {
		id := types.NewInt(int64(i))
		if rng.Intn(7) == 0 {
			id = types.Null()
		}
		text, lang := word()
		n := u(text, lang)
		switch rng.Intn(8) {
		case 0:
			n = types.Null()
		case 1:
			n = types.NewText(text)
		case 2:
			n = types.NewUniText(types.Compose(text, lang))
		}
		env.tables[name] = append(env.tables[name], types.Tuple{id, n})
	}
}

// joinCase is one Ψ or Ω join condition over joinCols, joining outer table
// outer with inner table inner.
type joinCase struct {
	outer, inner string
	cond         plan.Expr
}

func (c joinCase) String() string {
	return fmt.Sprintf("%s⋈%s %s", c.outer, c.inner, plan.ExprString(c.cond))
}

// joinCond builds a Ψ (threshold k) or Ω condition with an IN list between
// column oc of the outer side and ic of the inner, the outer one on the left
// when outerLeft.
func joinCond(omega, outerLeft bool, oc, ic, k int, langs []types.LangID) plan.Expr {
	l, r := plan.Expr(&plan.ColIdx{Idx: oc}), plan.Expr(&plan.ColIdx{Idx: 2 + ic})
	if !outerLeft {
		l, r = r, l
	}
	if omega {
		return &plan.Omega{L: l, R: r, Langs: langs}
	}
	return &plan.Psi{L: l, R: r, Threshold: k, Langs: langs}
}

// joinPlan is c's join, its inner side materialized; parallel marks the
// inner scan as a Gather partitions it.
func joinPlan(c joinCase, op plan.OpType, cond plan.Expr, parallel bool) *plan.Node {
	inner := scanNode(c.inner, joinCols[2:])
	inner.Parallel = parallel
	mat := &plan.Node{Op: plan.OpMaterialize, Children: []*plan.Node{inner}, Cols: joinCols[2:]}
	return &plan.Node{Op: op, Children: []*plan.Node{scanNode(c.outer, joinCols[:2]), mat}, Cols: joinCols, Cond: cond}
}

// joinRun is one run of a join plan: its rows, error and Ψ/Ω counts.
type joinRun struct {
	rows       []types.Tuple
	err        error
	psi, omega int64
	hoisted    bool
}

func runJoin(t *testing.T, env *mockEnv, node *plan.Node) joinRun {
	t.Helper()
	res := NewResources(context.Background(), 0)
	cur, err := Run(env, node, nil, res)
	if err != nil {
		t.Fatal(err)
	}
	nl, _ := cur.src.(*nlJoinIter)
	r := joinRun{hoisted: nl != nil && nl.jp != nil}
	r.rows, r.err = cur.All()
	r.psi, r.omega = cur.Stats.PsiEvaluations, cur.Stats.OmegaProbes
	settled(t, cur, res)
	return r
}

// joinAgree runs c's join hoisted — serially, and under a two-worker Gather
// that partitions the inner side — against the per-pair reference,
// Filter(cond) over a condition-less NL join. The serial run must return the
// reference's multiset, raise its first error and count its Ψ evaluations
// and Ω probes; the Gather run the same, but for an error only its kind.
func joinAgree(t *testing.T, env *mockEnv, c joinCase) (matched int, failed bool) {
	t.Helper()
	op := plan.OpPsiJoin
	if _, ok := c.cond.(*plan.Omega); ok {
		op = plan.OpOmegaJoin
	}
	ref := runJoin(t, env, &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{joinPlan(c, plan.OpNLJoin, nil, false)}, Cols: joinCols, Cond: c.cond})
	got := runJoin(t, env, joinPlan(c, op, c.cond, false))
	if !got.hoisted {
		t.Fatalf("%s: the join did not run hoisted", c)
	}
	if fmt.Sprint(got.err) != fmt.Sprint(ref.err) {
		t.Fatalf("%s: error %v, want %v", c, got.err, ref.err)
	}
	if got.err == nil {
		eqRowSets(t, got.rows, ref.rows)
	}
	if got.psi != ref.psi || got.omega != ref.omega {
		t.Fatalf("%s: %d Ψ evaluations and %d Ω probes, want %d and %d", c, got.psi, got.omega, ref.psi, ref.omega)
	}
	par := runJoin(t, env, &plan.Node{Op: plan.OpGather, Children: []*plan.Node{joinPlan(c, op, c.cond, true)}, Cols: joinCols, Workers: 2})
	if ref.err != nil {
		// Each worker reports the first error among its own inner rows.
		kind, _, _ := strings.Cut(ref.err.Error(), ", got")
		if par.err == nil {
			t.Fatalf("%s under a Gather: no error, want %v", c, ref.err)
		}
		for _, e := range strings.Split(par.err.Error(), "\n") {
			if !strings.HasPrefix(e, kind) {
				t.Fatalf("%s under a Gather: error %v, want %v", c, par.err, ref.err)
			}
		}
		return 0, true
	}
	if par.err != nil {
		t.Fatalf("%s under a Gather: %v", c, par.err)
	}
	eqRowSets(t, par.rows, ref.rows)
	if par.psi != ref.psi || par.omega != ref.omega {
		t.Fatalf("%s under a Gather: %d Ψ evaluations and %d Ω probes, want %d and %d", c, par.psi, par.omega, ref.psi, ref.omega)
	}
	return len(ref.rows), false
}

// randomJoinCase fills tables o and i from rng and draws a join between them.
func randomJoinCase(rng *rand.Rand, env *mockEnv, omega bool, outerRows, innerRows int) joinCase {
	word := func() (string, types.LangID) { return psiWord(rng) }
	langPool := types.AllLangs()
	if omega {
		word = func() (string, types.LangID) { return omegaWord(rng, env.net) }
		langPool = anyLangs
	}
	joinTable(rng, env, "o", outerRows, word)
	joinTable(rng, env, "i", innerRows, word)
	var langs []types.LangID
	for _, l := range langPool {
		if rng.Intn(4) == 0 {
			langs = append(langs, l)
		}
	}
	// Now and then an operand is the non-text id column.
	oc, ic := 1, 1
	switch rng.Intn(8) {
	case 0:
		oc = 0
	case 1:
		ic = 0
	}
	return joinCase{outer: "o", inner: "i", cond: joinCond(omega, rng.Intn(2) == 0, oc, ic, rng.Intn(4), langs)}
}

// A Ψ or Ω join compiles each outer row's operand once and streams the inner
// operands past it. Over seeded random tables — NULLs, TEXT, UNITEXT with
// and without stored phonemes, IN lists, thresholds 0–3, the outer column on
// either side, a non-text column, an empty side — it must agree with
// evaluating the condition pair by pair.
func TestJoinHoistedMatchesPerPair(t *testing.T) {
	env := newMockEnv()
	env.net = omegaNet()
	env.tables["empty"] = nil
	rng := rand.New(rand.NewSource(7))
	matched, failed := 0, 0
	for i := 0; i < 60; i++ {
		omega := i%2 == 1
		c := randomJoinCase(rng, env, omega, rng.Intn(12), 1+rng.Intn(40))
		m, f := joinAgree(t, env, c)
		matched += m
		if f {
			failed++
		}
		// The same condition with one side empty: no pair, no count.
		for _, empty := range []joinCase{{outer: "empty", inner: "i", cond: c.cond}, {outer: "o", inner: "empty", cond: c.cond}} {
			joinAgree(t, env, empty)
		}
	}
	if matched == 0 || failed == 0 {
		t.Fatalf("%d rows matched, %d cases failed: the cases miss the match or the error path", matched, failed)
	}
	if size := reflect.TypeFor[joinOperand]().Size(); size != joinOperandBytes {
		t.Errorf("a joinOperand is %d bytes, charged as %d", size, joinOperandBytes)
	}
}

// FuzzJoinAgree is TestJoinHoistedMatchesPerPair's check over fuzzed seeds
// and table sizes.
func FuzzJoinAgree(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(20), false)
	f.Add(int64(2), uint8(5), uint8(9), true)
	f.Add(int64(3), uint8(0), uint8(4), false)
	f.Add(int64(4), uint8(7), uint8(0), true)
	env := newMockEnv()
	env.net = omegaNet()
	f.Fuzz(func(t *testing.T, seed int64, outerRows, innerRows uint8, omega bool) {
		rng := rand.New(rand.NewSource(seed))
		joinAgree(t, env, randomJoinCase(rng, env, omega, int(outerRows%16), int(innerRows%64)))
	})
}
