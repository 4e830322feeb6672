package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// heapOf lays rows out in a fresh in-memory heap as the engine lays out a
// table whose columns have the given kinds — each record with the slot keys
// of the table's keyed column — and then deletes the rows dead picks.
func heapOf(kinds []types.Kind, rows []types.Tuple, dead func(i int) bool) (*storage.Heap, error) {
	keyed, keyBytes := types.KeyedColumn(kinds)
	pool := storage.NewPool(4 + len(rows)/16)
	pool.AttachDisk(1, storage.NewMemDisk())
	h, err := storage.OpenHeap(pool, 1, keyBytes)
	if err != nil {
		return nil, err
	}
	var keys []byte
	for i, t := range rows {
		keys = types.AppendSlotKeys(keys[:0], t, keyed)
		rid, err := h.Insert(types.EncodeTuple(t), keys)
		if err == nil && dead(i) {
			err = h.Delete(rid)
		}
		if err != nil {
			return nil, err
		}
	}
	return h, nil
}

// heapEnv serves some tables from real heaps, the rest from the mock.
type heapEnv struct {
	*mockEnv
	heaps map[string]*storage.Heap
}

type heapScan struct{ *storage.Iter }

func (heapScan) Close() error { return nil }

func (e *heapEnv) TablePages(table string) (int64, error) {
	if h, ok := e.heaps[table]; ok {
		return int64(h.NumPages()), nil
	}
	return e.mockEnv.TablePages(table)
}

func (e *heapEnv) ScanRecords(table string, lo, hi int64) (RecordScan, error) {
	if h, ok := e.heaps[table]; ok {
		return heapScan{h.ScanRange(storage.PageID(lo), storage.PageID(hi))}, nil
	}
	return e.mockEnv.ScanRecords(table, lo, hi)
}

// kernelTables serves the page-kernel tests' tables, whose columns are
// cols (id, name, alias), from heaps with every seventh row deleted: t, rows
// rows whose names mix every exit of the key test (keyTestValues) with
// omegaNet's words and whose aliases are the names in reverse order, and
// bad, t's rows with an INT in each text column and, later on the same
// page, a FLOAT. t must take enough pages that 1 and 2 workers claim them
// and 8 stripe its rows, and rows must put no INT or FLOAT on a deleted row.
func kernelTables(t *testing.T, rows int, cols []plan.ColInfo) (env *heapEnv, good []types.Tuple) {
	t.Helper()
	env = &heapEnv{mockEnv: newMockEnv(), heaps: map[string]*storage.Heap{}}
	env.net = omegaNet()
	mixed := keyTestValues()
	name := func(i int) types.Value {
		if i%4 == 0 {
			return mixed[i/4%len(mixed)]
		}
		lang := omegaLangs[i%len(omegaLangs)]
		return u(env.net.Lemma(lang, wordnet.SynsetID(i*7919%env.net.NumSynsets())), lang)
	}
	for i := range rows {
		good = append(good, types.Tuple{types.NewInt(int64(i)), name(i), name(rows - 1 - i)})
	}
	bad := append([]types.Tuple(nil), good...)
	for col, at := range map[int]int{1: rows / 2, 2: rows/2 + 3} {
		bad[at] = append(types.Tuple(nil), bad[at]...)
		bad[at][col] = types.NewInt(7)
		bad[at+20] = append(types.Tuple(nil), bad[at+20]...)
		bad[at+20][col] = types.NewFloat(0.5)
	}
	for table, rs := range map[string][]types.Tuple{"t": good, "bad": bad} {
		addHeap(t, env, table, cols, rs)
	}
	if np := env.heaps["t"].NumPages(); np < 2*morselChunkPages || np >= 8*morselChunkPages {
		t.Fatalf("the table takes %d pages: 2 workers must claim pages and 8 stripe rows", np)
	}
	return env, good
}

// addHeap serves table, of columns cols, from a heap of rs with every
// seventh row deleted.
func addHeap(t *testing.T, env *heapEnv, table string, cols []plan.ColInfo, rs []types.Tuple) {
	t.Helper()
	h, err := heapOf(schemaKinds(cols), rs, func(i int) bool { return i%7 == 3 })
	if err != nil {
		t.Fatal(err)
	}
	env.heaps[table] = h
	env.tables[table] = rs
}

// The fused scan's page loop (selectPage, then finish over the selection)
// against vectorFilterIter over the kernel-less scan, on heap pages that mix
// dead slots, rows the key test takes (stored phonemes), key-less rows (a
// phoneme to convert, one whose rune count overflows, TEXT, NULL) and a
// second UNITEXT column, which has no slot keys. Ψ and Ω on either column,
// with and without an IN list, at 0 (serial), 1, 2 and 8 workers — 8 stripe
// the table by row, 1 and 2 claim its pages — return the same rows and the
// same Ψ and Ω counts; one condition keeps more than a batch of rows, so
// batches fill partway through a page. On a table with non-text operands
// part-way down a page, followed by rows the key test counts, the first
// error and, serially and with one worker, the counts are the generic
// filter's too.
func TestFusedPageKernelMatchesGeneric(t *testing.T) {
	cols := []plan.ColInfo{{Rel: "t", Name: "id", Kind: types.KindInt}, {Rel: "t", Name: "name", Kind: types.KindUniText}, {Rel: "t", Name: "alias", Kind: types.KindUniText}}
	env, _ := kernelTables(t, 2000, cols)
	root := env.net.Lemma(types.LangEnglish, 0)
	run := func(table string, cond plan.Expr, workers int) (got []types.Tuple, stats RunStats, fused bool, err error) {
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
		fused = fusedScan(cur.src)
		got, err = cur.All()
		settled(t, cur, res)
		return got, *cur.Stats, fused, err
	}
	filled, failed := false, 0
	for idx := 1; idx <= 2; idx++ {
		col := &plan.ColIdx{Idx: idx, Kind: types.KindUniText}
		conds, _, _ := keyTestConds(col)
		conds = append(conds,
			&plan.Psi{L: col, R: &plan.Const{Val: u("nehru", types.LangEnglish)}, Threshold: 40},
			&plan.Omega{L: col, R: &plan.Const{Val: types.NewText(root)}})
		for _, cond := range conds {
			generic := &plan.AndOr{L: cond, R: &plan.Const{Val: types.NewBool(true)}}
			for _, table := range []string{"t", "bad"} {
				for _, workers := range []int{0, 1, 2, 8} {
					t.Run(fmt.Sprintf("%s/%s/%s/workers=%d", cols[idx].Name, table, plan.ExprString(cond), workers), func(t *testing.T) {
						want, wantStats, _, wantErr := run(table, generic, workers)
						got, stats, fused, err := run(table, cond, workers)
						if workers == 0 && !fused {
							t.Fatal("the filter did not fuse")
						}
						if table == "bad" && workers > 1 && (err != nil || wantErr != nil) {
							// Each worker stops at its own first error.
							if err == nil || wantErr == nil || !strings.Contains(err.Error(), "operands must be text") {
								t.Fatalf("error %v, want an operand-kind error like %v", err, wantErr)
							}
							return
						}
						if fmt.Sprint(err) != fmt.Sprint(wantErr) {
							t.Fatalf("error %v, want %v", err, wantErr)
						}
						if err != nil {
							failed++
						} else {
							eqRowSets(t, got, want)
							filled = filled || len(want) > BatchRows
						}
						if stats.PsiEvaluations != wantStats.PsiEvaluations || stats.OmegaProbes != wantStats.OmegaProbes {
							t.Errorf("%d Ψ evaluations and %d Ω probes, want %d and %d",
								stats.PsiEvaluations, stats.OmegaProbes, wantStats.PsiEvaluations, wantStats.OmegaProbes)
						}
					})
				}
			}
		}
	}
	if !filled || failed == 0 {
		t.Fatalf("a condition kept more than a batch of rows: %v; %d serial or one-worker scans failed, want some", filled, failed)
	}
}

// The page loop checks for cancellation every cancelInterval rows, as a
// row-at-a-time loop does. Canceled before its first row, a fused scan with
// no survivors fails with ErrCanceled once the cursor's Next has taken tick
// 1 and its rows ticks 2 to cancelInterval: it has key-tested the
// cancelInterval−2 rows ahead of the one whose tick checked.
func TestFusedScanChecksCancellationPerRow(t *testing.T) {
	env := newMockEnv()
	mkUniTable(env, "t", 4*cancelInterval)
	cols := []plan.ColInfo{{Rel: "t", Name: "n", Kind: types.KindUniText}}
	node := &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{scanNode("t", cols)}, Cols: cols,
		Cond: &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.Const{Val: types.NewText("zzzzzzzz")}}}
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := Run(env, node, nil, NewResources(ctx, 0))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, ok, err := cur.Next(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Next = ok=%v err=%v, want ErrCanceled", ok, err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if n := cur.Stats.PsiEvaluations; n != cancelInterval-2 {
		t.Errorf("%d Ψ evaluations before the checkpoint, want %d", n, cancelInterval-2)
	}
}

// The hoisted join's page loop (selectBlock, then finishSel over its
// selection) against the per-pair reference joinAgree uses, Filter(cond)
// over a condition-less NL join, on heap pages laid out as in
// TestFusedPageKernelMatchesGeneric: dead slots, inner rows the key test
// takes (stored phonemes), key-less ones (a phoneme to convert, one of 280
// runes, TEXT, NULL) and a second UNITEXT column, which has no slot keys, as
// the operand. Ψ and Ω, with and without an IN list, serially and at 1, 2
// and 8 workers over the partitioned inner side (1 and 2 claim its pages, 8
// stripe it by row), over blocks of 1 and 2 outer rows, keyable and not,
// and over an outer side of more than a batch, whose output fills batches
// part-way through a page and through a record, return the reference's rows
// and Ψ and Ω counts. Over an inner table with an INT operand part-way down
// a page, the joins fail with the reference's error (its kind under more
// than one worker) and, over one outer row, serially and with one worker,
// after its count.
func TestHoistedJoinPageKernelMatchesPerPair(t *testing.T) {
	cols := []plan.ColInfo{{Rel: "i", Name: "id", Kind: types.KindInt}, {Rel: "i", Name: "name", Kind: types.KindUniText}, {Rel: "i", Name: "alias", Kind: types.KindUniText}}
	outerCols := []plan.ColInfo{{Rel: "o", Name: "id", Kind: types.KindInt}, {Rel: "o", Name: "n", Kind: types.KindUniText}}
	both := append(append([]plan.ColInfo(nil), outerCols...), cols...)
	env, good := kernelTables(t, 710, cols)
	// Table s, the inner side of an outer side of more than a batch, is 24 of
	// t's rows on one page: Ψ's matches for nehru and gandhi, Ω's for
	// History.
	addHeap(t, env, "s", cols, append(good[:12:12], good[36:48]...))
	if np := env.heaps["s"].NumPages(); np != 1 {
		t.Fatalf("table s takes %d pages, want 1", np)
	}
	long := types.NewUniText(types.UniText{Text: "nehru nehru", Lang: types.LangEnglish, Phoneme: keyTestLongPhoneme})
	// Each outer table's values per operator: o1 and o2 keyable without an
	// IN list, o2null never (its NULL compiles no key test), and big, two
	// blocks, cycling through o2's values and a third, so that a batch
	// fills inside a record.
	outers := map[bool]map[string][]types.Value{
		false: {"o1": {u("nehru", types.LangEnglish)}, "o2": {types.NewText("nehru"), long}, "o2null": {u("நேரு", types.LangTamil), types.Null()}},
		true:  {"o1": {types.NewText("History")}, "o2": {u("history", types.LangEnglish), types.NewText("History")}, "o2null": {u("history", types.LangEnglish), types.Null()}},
	}
	for _, vals := range outers {
		cycle := append(vals["o2"][:2:2], u("gandhi", types.LangHindi))
		for i := range BatchRows + 6 {
			vals["big"] = append(vals["big"], cycle[i%3])
		}
	}
	pairs := []struct{ inner, outer string }{{"t", "o1"}, {"t", "o2"}, {"t", "o2null"}, {"s", "big"}, {"bad", "o1"}, {"bad", "o2"}}
	join := func(inner, outer string, op plan.OpType, cond plan.Expr, workers int) *plan.Node {
		in := scanNode(inner, cols)
		in.Parallel = workers > 0
		n := &plan.Node{Op: op, Children: []*plan.Node{scanNode(outer, outerCols), in}, Cols: both, Cond: cond}
		if workers > 0 {
			n = &plan.Node{Op: plan.OpGather, Children: []*plan.Node{n}, Cols: both, Workers: workers}
		}
		return n
	}
	filled, failed := false, 0
	for _, omega := range []bool{false, true} {
		for idx := 1; idx <= 2; idx++ {
			for _, langs := range [][]types.LangID{nil, {types.LangEnglish, types.LangHindi}} {
				cond := joinCond(omega, true, 1, idx, 2, langs)
				op := plan.OpPsiJoin
				if omega {
					op = plan.OpOmegaJoin
				}
				for _, p := range pairs {
					env.tables[p.outer] = nil
					for i, v := range outers[omega][p.outer] {
						env.tables[p.outer] = append(env.tables[p.outer], types.Tuple{types.NewInt(int64(i)), v})
					}
					ref := runJoin(t, env, &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{join(p.inner, p.outer, plan.OpNLJoin, nil, 0)}, Cols: both, Cond: cond})
					for _, workers := range []int{0, 1, 2, 8} {
						t.Run(fmt.Sprintf("%s⋈%s/%s/%s/workers=%d", p.outer, p.inner, cols[idx].Name, plan.ExprString(cond), workers), func(t *testing.T) {
							got := runJoin(t, env, join(p.inner, p.outer, op, cond, workers))
							if workers == 0 && !got.hoisted {
								t.Fatal("the join did not run hoisted")
							}
							if ref.err != nil && workers > 1 {
								// Each worker stops at its own first error.
								if got.err == nil || !strings.Contains(got.err.Error(), "operands must be text") {
									t.Fatalf("error %v, want an operand-kind error like %v", got.err, ref.err)
								}
								return
							}
							if fmt.Sprint(got.err) != fmt.Sprint(ref.err) {
								t.Fatalf("error %v, want %v", got.err, ref.err)
							}
							if got.err == nil {
								eqRowSets(t, got.rows, ref.rows)
								filled = filled || len(ref.rows) > BatchRows
							} else if failed++; len(env.tables[p.outer]) > 1 {
								return // pairs are counted block-major, not outer-major
							}
							if got.psi != ref.psi || got.omega != ref.omega {
								t.Errorf("%d Ψ evaluations and %d Ω probes, want %d and %d", got.psi, got.omega, ref.psi, ref.omega)
							}
						})
					}
				}
			}
		}
	}
	if !filled || failed == 0 {
		t.Fatalf("a join returned more than a batch of rows: %v; %d serial or one-worker joins failed, want some", filled, failed)
	}
}

// The join's page loop checks for cancellation every cancelInterval ticks,
// as a row-at-a-time loop over the pairs does, on real heap pages. Canceled
// before its first pair, a join of two outer rows whose pairs the key test
// all rejects fails with ErrCanceled once the cursor's Next has taken tick
// 1, the outer scan ticks 2 and 3, the block's compilation ticks 4 and 5,
// and its pairs, inner record by inner record, ticks 6 to cancelInterval: it
// has key-tested the cancelInterval−6 pairs ahead of the one whose tick
// checked.
func TestHoistedJoinChecksCancellationPerPair(t *testing.T) {
	env := &heapEnv{mockEnv: newMockEnv(), heaps: map[string]*storage.Heap{}}
	cols := []plan.ColInfo{{Rel: "i", Name: "n", Kind: types.KindUniText}}
	for range 2 * cancelInterval {
		env.tables["i"] = append(env.tables["i"], types.Tuple{u("nehru", types.LangEnglish)})
	}
	h, err := heapOf(schemaKinds(cols), env.tables["i"], func(i int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	env.heaps["i"] = h
	env.tables["o"] = []types.Tuple{{u("zzzzzzzz", types.LangEnglish)}, {u("zzzzzzzz", types.LangEnglish)}}
	oc := []plan.ColInfo{{Rel: "o", Name: "n", Kind: types.KindUniText}}
	node := &plan.Node{Op: plan.OpPsiJoin, Children: []*plan.Node{scanNode("o", oc), scanNode("i", cols)},
		Cols: append(append([]plan.ColInfo{}, oc...), cols...), Cond: &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.ColIdx{Idx: 1}}}
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := Run(env, node, nil, NewResources(ctx, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.src.(*hoistedJoinIter); !ok {
		t.Fatal("the join did not run hoisted")
	}
	cancel()
	if _, ok, err := cur.Next(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Next = ok=%v err=%v, want ErrCanceled", ok, err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if n := cur.Stats.PsiEvaluations; n != cancelInterval-6 {
		t.Errorf("%d Ψ evaluations before the checkpoint, want %d", n, cancelInterval-6)
	}
}
