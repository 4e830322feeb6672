package exec

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/storage"
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
// outer with inner table inner, whose rows reach the join as shape says.
type joinCase struct {
	outer, inner string
	cond         plan.Expr
	shape        innerShape
}

func (c joinCase) String() string {
	return fmt.Sprintf("%s⋈%s(%s) %s", c.outer, c.inner, c.shape, plan.ExprString(c.cond))
}

// innerShape is the plan a join's inner table reaches it through. A scan,
// under a Materialize or bare, is read as records copied off the page; a
// Filter's rows are encoded, under a Materialize or bare.
type innerShape int

const (
	innerMaterialized innerShape = iota
	innerBare
	innerFiltered
	innerMaterializedFilter
	innerShapes
)

func (s innerShape) String() string {
	return [...]string{"materialized", "bare", "filtered", "materialized filter"}[s]
}

// innerKeep is the Filter of the filtered inner shapes: id >= 3, which drops
// the first rows and the NULL ids.
var innerKeep = &plan.Cmp{Op: sql.OpGe, L: &plan.ColIdx{Idx: 0, Kind: types.KindInt}, R: &plan.Const{Val: types.NewInt(3)}}

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

// joinPlan is c's join, its inner side shaped as c says; parallel marks the
// inner scan as a Gather partitions it.
func joinPlan(c joinCase, op plan.OpType, cond plan.Expr, parallel bool) *plan.Node {
	inner := scanNode(c.inner, joinCols[2:])
	inner.Parallel = parallel
	over := func(op plan.OpType, cond plan.Expr) {
		inner = &plan.Node{Op: op, Children: []*plan.Node{inner}, Cols: joinCols[2:], Cond: cond}
	}
	switch c.shape {
	case innerMaterialized:
		over(plan.OpMaterialize, nil)
	case innerFiltered:
		over(plan.OpFilter, innerKeep)
	case innerMaterializedFilter:
		over(plan.OpFilter, innerKeep)
		over(plan.OpMaterialize, nil)
	}
	return &plan.Node{Op: op, Children: []*plan.Node{scanNode(c.outer, joinCols[:2]), inner}, Cols: joinCols, Cond: cond}
}

// joinRun is one run of a join plan: its rows, error and Ψ/Ω counts.
type joinRun struct {
	rows       []types.Tuple
	err        error
	psi, omega int64
	hoisted    bool
}

func runJoin(t *testing.T, env Env, node *plan.Node) joinRun {
	t.Helper()
	res := NewResources(context.Background(), 0)
	cur, err := Run(env, node, nil, res)
	if err != nil {
		t.Fatal(err)
	}
	_, hoisted := cur.src.(*hoistedJoinIter)
	r := joinRun{hoisted: hoisted}
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
func joinAgree(t *testing.T, env Env, c joinCase) (matched int, failed bool) {
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
	cond := joinCond(omega, rng.Intn(2) == 0, oc, ic, rng.Intn(4), langs)
	return joinCase{outer: "o", inner: "i", cond: cond, shape: innerShape(rng.Intn(int(innerShapes)))}
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
		for _, empty := range []joinCase{{outer: "empty", inner: "i", cond: c.cond, shape: c.shape}, {outer: "o", inner: "empty", cond: c.cond, shape: c.shape}} {
			joinAgree(t, env, empty)
		}
	}
	if matched == 0 || failed == 0 {
		t.Fatalf("%d rows matched, %d cases failed: the cases miss the match or the error path", matched, failed)
	}
}

// FuzzJoinAgree is TestJoinHoistedMatchesPerPair's check over fuzzed seeds
// and table sizes, with the inner table served from the mock's pages and
// again from a heap's, whose slot array holds dead slots too: both go
// through the join's page selection (selectBlock) over a real slot array.
// Ω's inner slots hold synsets' labels and NoSynsets, and every second
// inner row a sentinel: Unlabelled (written with no taxonomy) or ManySynsets
// (a homonym's).
func FuzzJoinAgree(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(20), false)
	f.Add(int64(2), uint8(5), uint8(9), true)
	f.Add(int64(3), uint8(0), uint8(4), false)
	f.Add(int64(4), uint8(7), uint8(0), true)
	f.Add(int64(42), uint8(12), uint8(60), true) // ManySynsets inner rows, one matched, one not
	env := newMockEnv()
	env.net = omegaNet()
	env.verified = sentinels
	f.Fuzz(func(t *testing.T, seed int64, outerRows, innerRows uint8, omega bool) {
		rng := rand.New(rand.NewSource(seed))
		c := randomJoinCase(rng, env, omega, int(outerRows%16), int(innerRows%64))
		joinAgree(t, env, c)
		dead := make([]bool, len(env.tables["i"]))
		for i := range dead {
			dead[i] = rng.Intn(4) == 0
		}
		h, err := heapOf(env.labels(), schemaKinds(joinCols[2:]), env.tables["i"], func(i int) bool { return dead[i] })
		if err != nil {
			t.Fatal(err)
		}
		joinAgree(t, &heapEnv{mockEnv: env, heaps: map[string]*storage.Heap{"i": h}}, c)
	})
}

// uniJoin is a Ψ join at threshold k of the UNITEXT tables o and i over
// their one column, the inner one under a Materialize when materialized.
func uniJoin(k int, materialized bool) *plan.Node {
	oc := []plan.ColInfo{{Rel: "o", Name: "n", Kind: types.KindUniText}}
	ic := []plan.ColInfo{{Rel: "i", Name: "n", Kind: types.KindUniText}}
	inner := scanNode("i", ic)
	if materialized {
		inner = &plan.Node{Op: plan.OpMaterialize, Children: []*plan.Node{inner}, Cols: ic}
	}
	return &plan.Node{Op: plan.OpPsiJoin, Children: []*plan.Node{scanNode("o", oc), inner},
		Cols: append(append([]plan.ColInfo{}, oc...), ic...), Cond: &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.ColIdx{Idx: 1}, Threshold: k}}
}

// Under a collector — EXPLAIN ANALYZE's, the feedback counter's — a hoisted
// join is the same iterator, and it reports for the inner nodes it absorbs
// what they would report running alone: the Materialize one loop per pass and
// every inner row once per pass, the scan the rows it read, once. Every exit
// leaves nothing behind.
func TestHoistedJoinUnderCollector(t *testing.T) {
	const outer, inner = 3, 1500
	env := newMockEnv()
	mkUniTable(env, "o", outer)
	mkUniTable(env, "i", inner)
	for _, materialized := range []bool{true, false} {
		t.Run(fmt.Sprintf("materialized=%v", materialized), func(t *testing.T) {
			node := uniJoin(1, materialized)
			ref := &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{{Op: plan.OpNLJoin, Children: node.Children, Cols: node.Cols}},
				Cols: node.Cols, Cond: node.Cond}
			want := runAll(t, env, ref)
			for _, es := range []*ExecStats{NewExecStats(), NewCountStats()} {
				cur, err := Run(env, node, es, nil)
				if err != nil {
					t.Fatal(err)
				}
				if w, ok := cur.src.(*batchStatsIter); !ok {
					t.Fatalf("the join under a collector is a %T, want its stats wrapper", cur.src)
				} else if _, ok := w.child.(*hoistedJoinIter); !ok {
					t.Fatalf("the join under a collector is a %T, want the hoisted join", w.child)
				}
				rows, err := cur.All()
				if err != nil {
					t.Fatal(err)
				}
				eqRowSets(t, rows, want)
				scan := node.Children[1]
				if materialized {
					scan = scan.Children[0]
					if a, _ := es.Actual(node.Children[1]); a.Loops != outer || a.Rows != outer*inner {
						t.Errorf("materialize actual = %+v, want loops=%d rows=%d", a, outer, outer*inner)
					}
				}
				if a, _ := es.Actual(scan); a.Loops != 1 || a.Rows != inner {
					t.Errorf("inner scan actual = %+v, want loops=1 rows=%d", a, inner)
				}
				if a, _ := es.Actual(node); a.Rows != int64(len(want)) {
					t.Errorf("join actual = %+v, want rows=%d", a, len(want))
				}
			}
			everyExit(t, env, node, outer+inner/2, func(*testing.T, []types.Tuple, *Cursor, *ExecStats) {})
		})
	}
}

// Under a Gather the workers of a hoisted join claim the inner scan's pages
// as a scan's workers do: whichever worker runs first, each page is read by
// one of them, and the records the two read sum to the table once.
func TestHoistedJoinWorkersClaimEachPageOnce(t *testing.T) {
	const inner = 40 // 20 mock pages
	env := newMockEnv()
	mkUniTable(env, "o", 1)
	mkUniTable(env, "i", inner)
	for _, materialized := range []bool{true, false} {
		for _, order := range [][]int{{0, 1}, {1, 0}} {
			node := uniJoin(1, materialized)
			scan := node.Children[1]
			if materialized {
				scan = scan.Children[0]
			}
			scan.Parallel = true
			gather := &plan.Node{Op: plan.OpGather, Children: []*plan.Node{node}, Cols: node.Cols, Workers: 2}
			ev := &evaluator{env: env, stats: &RunStats{}, pool: NewBatchPool(), preds: &stmtPreds{}, collector: NewCountStats()}
			it, err := buildGather(env, ev, gather, nil)
			if err != nil {
				t.Fatal(err)
			}
			g := it.(*gatherIter)
			read := 0
			for _, w := range order {
				for {
					b, err := g.workers[w].root.NextBatch()
					if err != nil {
						t.Fatal(err)
					}
					if b == nil {
						break
					}
					g.workers[w].ev.putBatch(b)
				}
				a, _ := g.workers[w].ev.collector.Actual(scan)
				read += int(a.Rows)
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			if read != inner {
				t.Errorf("materialized=%v, worker %d first: the workers read %d inner records, want %d", materialized, order[0], read, inner)
			}
		}
	}
}

// A hoisted join reads its inner side once per block of outer rows, one
// outer batch, not once per outer row — under a Gather too, whose workers
// claim each pass's pages from one cursor — and holds no copy of it: the
// peak memory of a join that matches nothing stays below the inner records'
// own bytes.
func TestHoistedJoinStreamsInnerOncePerBlock(t *testing.T) {
	const inner = 256 // 128 mock pages
	env := newMockEnv()
	for i := 0; i < inner; i++ {
		env.tables["i"] = append(env.tables["i"], types.Tuple{u("krishnamurthy", types.LangEnglish)})
	}
	pages := env.pagesFor("i")
	records := 0
	for _, page := range pages {
		for _, rec := range page {
			records += len(rec)
		}
	}
	for _, c := range []struct{ outer, passes int }{{1, 1}, {BatchRows, 1}, {BatchRows + 1, 2}} {
		env.tables["o"] = nil
		for i := 0; i < c.outer; i++ {
			env.tables["o"] = append(env.tables["o"], types.Tuple{u("nehru", types.LangEnglish)})
		}
		for _, workers := range []int{0, 2} {
			node := uniJoin(0, true)
			if workers > 0 {
				node.Children[1].Children[0].Parallel = true
				node = &plan.Node{Op: plan.OpGather, Children: []*plan.Node{node}, Cols: node.Cols, Workers: workers}
			}
			reads := env.pageReads("i")
			before := reads.Load()
			res := NewResources(context.Background(), 0)
			cur, err := Run(env, node, NewExecStats(), res)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := cur.All()
			if err != nil || len(rows) != 0 || cur.Stats.PsiEvaluations != int64(c.outer*inner) {
				t.Fatalf("%d outer rows, %d workers: %d rows, %d Ψ evaluations, %v; want 0, %d and no error",
					c.outer, workers, len(rows), cur.Stats.PsiEvaluations, err, c.outer*inner)
			}
			if got := reads.Load() - before; got != int64(c.passes*len(pages)) {
				t.Errorf("%d outer rows, %d workers: %d inner page reads, want %d (%d passes over %d pages)",
					c.outer, workers, got, c.passes*len(pages), c.passes, len(pages))
			}
			if peak := res.PeakBytes(); c.outer == 1 && workers == 0 && peak >= int64(records) {
				t.Errorf("peak %d bytes accounted, not below the %d of the inner records", peak, records)
			}
		}
	}
}

// Over an outer side of more than one block — serially, and under a Gather
// whose workers claim each block's pass from one cursor — a hoisted join
// agrees with the per-pair reference as it does over one.
func TestHoistedJoinAgreesAcrossBlocks(t *testing.T) {
	env := newMockEnv()
	env.net = omegaNet()
	rng := rand.New(rand.NewSource(11))
	matched := 0
	for i := 0; i < 8; i++ {
		// 4 inner rows are striped under the Gather; 16 and more are claimed.
		m, _ := joinAgree(t, env, randomJoinCase(rng, env, i%2 == 1, BatchRows+3, 4+12*(i%4)))
		matched += m
	}
	if matched == 0 {
		t.Fatal("no case matched a row")
	}
}

// One block of a Ψ join meets every kind of inner operand in turn: UNITEXT
// with its phoneme (its stored keys and views read once and shared by the
// block's outer rows), UNITEXT without it, bare TEXT and NULL, and under an
// IN list languages it excludes, while its outer rows are themselves of
// every kind. Whichever path each pair takes — the shared keys, a
// conversion, an admission check — the join agrees with the per-pair
// filter, counts included.
func TestPsiJoinSharedSummaryMixedInner(t *testing.T) {
	env := newMockEnv()
	env.tables["o"] = []types.Tuple{
		{types.NewInt(0), u("nehru", types.LangEnglish)},
		{types.NewInt(1), u("नेहरू", types.LangHindi)},
		{types.NewInt(2), types.NewText("neru")},
		{types.NewInt(3), types.Null()},
		{types.NewInt(4), u("நேரு", types.LangTamil)},
		{types.NewInt(5), u("gandhi", types.LangEnglish)},
		{types.NewInt(6), types.NewUniText(types.Compose("Nehroo", types.LangEnglish))},
	}
	env.tables["i"] = []types.Tuple{}
	for i, n := range psiNames {
		for j, v := range []types.Value{u(n.text, n.lang), types.NewText(n.text), types.Null(), types.NewUniText(types.Compose(n.text, n.lang))} {
			env.tables["i"] = append(env.tables["i"], types.Tuple{types.NewInt(int64(4*i + j)), v})
		}
	}
	matched := 0
	for _, langs := range [][]types.LangID{nil, {types.LangEnglish, types.LangHindi}} {
		for k := 0; k <= 3; k++ {
			for _, outerLeft := range []bool{true, false} {
				for shape := innerShape(0); shape < innerShapes; shape++ {
					m, failed := joinAgree(t, env, joinCase{outer: "o", inner: "i", cond: joinCond(false, outerLeft, 1, 1, k, langs), shape: shape})
					if failed {
						t.Fatalf("k=%d langs=%v: the join failed", k, langs)
					}
					matched += m
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("no pair matched")
	}
}

// An Ω join whose inner operand is its table's keyed column tests every
// inner record on its label, so its outer rows' probes build no filters
// whatever the closure; over a TEXT inner column, read without labels, it
// bounds each probe's filters by the inner side's estimated rows:
// BenchmarkOmegaJoin's small closure compiles to filters, its large one to
// none.
func TestOmegaJoinProbeFormFollowsInnerEstimate(t *testing.T) {
	net := omegaNet()
	for name, closure := range omegaJoinClosures {
		for _, text := range []bool{false, true} {
			env, node, concept := omegaJoinBench(net, closure)
			if text {
				for i, row := range env.tables["i"] {
					env.tables["i"][i] = types.Tuple{types.NewText(row[0].UniText().Text)}
				}
				node.Children[1].Cols[0].Kind = types.KindText
			}
			cur, err := Run(env, node, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			j := cur.src.(*hoistedJoinIter)
			if err := j.nextBlock(); err != nil {
				t.Fatal(err)
			}
			if err := j.compileBlock(); err != nil {
				t.Fatal(err)
			}
			filtered := j.k.preds[0].probe.MemBytes() > net.CompileRight(concept, nil, 0).MemBytes()
			if filtered != (text && name == "filtered") {
				t.Errorf("%s, inner TEXT %v: the join compiled filters: %v", name, text, filtered)
			}
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A pair the hoisted join rejects allocates nothing, and reading the inner
// side allocates the same at any size: its records are read off the page,
// not decoded into one tuple per row. The batch pool may miss now and then
// (the race detector drops pooled items on purpose), hence the slack of two.
// Streamed, the inner side also costs the statement less memory than the
// inner rows decoded would.
func TestHoistedJoinAllocationsIndependentOfInnerRows(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := map[int]float64{}
	for _, inner := range []int{1024, 4096} {
		env := newMockEnv()
		env.tables["o"] = nil
		for i := 0; i < 8; i++ {
			env.tables["o"] = append(env.tables["o"], types.Tuple{u("nehru", types.LangEnglish)})
		}
		for i := 0; i < inner; i++ {
			env.tables["i"] = append(env.tables["i"], types.Tuple{u("krishnamurthy", types.LangEnglish)})
		}
		env.pagesFor("i")
		node := uniJoin(0, true)
		run := func() {
			cur, err := Run(env, node, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := cur.All()
			if err != nil || len(rows) != 0 || cur.Stats.PsiEvaluations != int64(8*inner) {
				t.Fatalf("%d rows, %d Ψ evaluations, %v; want 0, %d and no error", len(rows), cur.Stats.PsiEvaluations, err, 8*inner)
			}
		}
		run()
		allocs[inner] = testing.AllocsPerRun(20, run)
		res := NewResources(context.Background(), 0)
		cur, err := Run(env, node, nil, res)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.All(); err != nil {
			t.Fatal(err)
		}
		if peak, decoded := res.PeakBytes(), tuplesBytes(env.tables["i"]); peak >= decoded {
			t.Errorf("%d inner rows: peak %d bytes accounted, not below the %d of the rows decoded", inner, peak, decoded)
		}
	}
	t.Logf("allocations per statement: %v", allocs)
	if allocs[4096] > allocs[1024]+2 {
		t.Errorf("a join rejecting every pair made %.0f allocations over 1,024 inner rows and %.0f over 4,096; want the same", allocs[1024], allocs[4096])
	}
}

// A join's record buffer is charged what its pages retain — their buffers,
// the room they have yet to fill included, and the page slice — and a reset
// keeps the pages, so refilling it to no more than before costs no charge
// and makes no page.
func TestRecordBufChargesWhatItRetains(t *testing.T) {
	var b recordBuf
	b.keyed, b.keyBytes = types.KeyedColumn([]types.Kind{types.KindInt, types.KindUniText})
	fill := func(n int) {
		t.Helper()
		for i := range n {
			if err := b.addTuple(types.Tuple{types.NewInt(int64(i)), u("krishnamurthy", types.LangEnglish)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	retained := func() int64 {
		n := int64(cap(b.pages)) * int64(unsafe.Sizeof(storage.Page{}))
		for i := range b.pages {
			n += int64(b.pages[i].Cap())
		}
		return n
	}
	fill(1000)
	if b.used < 3 {
		t.Fatalf("1000 rows fill %d pages, want several", b.used)
	}
	if got, want := b.bytes, retained(); got != want {
		t.Fatalf("charged %d bytes, the pages retain %d", got, want)
	}
	bytes, pages := b.bytes, len(b.pages)
	for _, n := range []int{1000, 10, 700} {
		b.reset()
		fill(n)
		if b.bytes != bytes || len(b.pages) != pages {
			t.Errorf("refilled with %d rows: %d bytes in %d pages, want the %d bytes and %d pages kept", n, b.bytes, len(b.pages), bytes, pages)
		}
		held := 0
		for i := range b.used {
			held += b.pages[i].Len()
		}
		if held != n {
			t.Errorf("refilled with %d rows: the used pages hold %d", n, held)
		}
	}
	b.reset()
	fill(2000)
	if got, want := b.bytes, retained(); got != want || got <= bytes {
		t.Errorf("grown to 2000 rows: charged %d bytes, the pages retain %d (was %d)", got, want, bytes)
	}
}
