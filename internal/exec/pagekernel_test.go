package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// heapOf lays rows out in a fresh in-memory heap as the engine lays out a
// table whose columns have the given kinds — each record with the slot keys
// of the table's keyed column, labelled by labels — and then deletes the rows
// dead picks.
func heapOf(labels labeller, kinds []types.Kind, rows []types.Tuple, dead func(i int) bool) (*storage.Heap, error) {
	keyed, keyBytes := types.KeyedColumn(kinds)
	pool := storage.NewPool(4 + len(rows)/16)
	pool.AttachDisk(1, storage.NewMemDisk())
	h, err := storage.OpenHeap(pool, 1, keyBytes)
	if err != nil {
		return nil, err
	}
	var keys []byte
	for i, t := range rows {
		keys = types.AppendSlotKeys(keys[:0], t, keyed, labels.label(i, t, keyed))
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
	h, err := heapOf(env.labels(), schemaKinds(cols), rs, func(i int) bool { return i%7 == 3 })
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
	h, err := heapOf(env.labels(), schemaKinds(cols), env.tables["i"], func(i int) bool { return false })
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

// keyWindowRunes returns n runes whose rune-set signature bits are distinct,
// so that a phoneme built of them has one signature bit per distinct rune.
func keyWindowRunes(n int) []rune {
	var rs []rune
	var used uint64
	for r := 'a'; len(rs) < n; r++ {
		if bit := types.Summarize([]byte(string(r))).Sig; used&bit == 0 {
			used |= bit
			rs = append(rs, r)
		}
	}
	return rs
}

// keyWindowRows returns phonemes at the edges of Ψ's key window around pat
// at threshold k, pat being three runes each once (s) followed by four
// copies of a fourth (d), and fresh the runes whose signature bits pat
// lacks: rune counts m−k−1, m−k, m+k and m+k+1, made by deleting or
// inserting copies of d, which leaves the signature as it is; and, at m
// runes, signatures that gain k and k+1 bits (copies of d replaced by fresh
// runes) and that lose k and k+1 (runes of s replaced by d). Each row at
// the window's edge is k edits from pat, each past it k+1.
func keyWindowRows(s []rune, d rune, fresh []rune, k int) []string {
	pat := string(s) + strings.Repeat(string(d), 4)
	var rows []string
	for _, n := range []int{k + 1, k} {
		rows = append(rows, string(s)+strings.Repeat(string(d), 4-n), string(s)+strings.Repeat(string(d), 4+n))
		rows = append(rows, string(s)+string(fresh[:n])+strings.Repeat(string(d), 4-n))
		rows = append(rows, strings.Repeat(string(d), n)+string(s[n:])+strings.Repeat(string(d), 4))
	}
	return append(rows, pat)
}

// The select loop's key test at the edges of Ψ's window, on heap pages: for
// thresholds 0, 1 and 2 and a constant of m = 7 runes, rows whose rune
// count is m−k−1, m−k, m+k and m+k+1 and rows whose signature differs from
// the constant's in exactly k and k+1 bits, in each direction
// (keyWindowRows); and a constant with an empty phoneme against rows of 0 to
// 3 runes. Serially, claimed by 2 workers and striped by 8, the fused scan
// returns the generic filter's rows and Ψ and Ω counts, and those rows are
// the ones within k edits by the reference edit distance. Serially, the
// rows selectPage selects on each page are the key-less ones and those the
// window passes by its definition: a length within k of m and at most k
// signature bits missing from either side.
func TestFusedKeyWindowEdges(t *testing.T) {
	rs := keyWindowRunes(8)
	s, d, fresh := rs[:3], rs[3], rs[4:]
	cols := []plan.ColInfo{{Rel: "t", Name: "id", Kind: types.KindInt}, {Rel: "t", Name: "name", Kind: types.KindUniText}}
	type window struct {
		ph string
		k  int
	}
	var windows []window
	var phs []string
	for k := range 3 {
		windows = append(windows, window{string(s) + strings.Repeat(string(d), 4), k})
		phs = append(phs, keyWindowRows(s, d, fresh, k)...)
	}
	for n := range 4 {
		phs = append(phs, string(fresh[:n]))
	}
	windows = append(windows, window{"", 1}, window{"", 2})
	env := &heapEnv{mockEnv: newMockEnv(), heaps: map[string]*storage.Heap{}}
	var rows []types.Tuple
	for i := range 2600 {
		ph := phs[i%len(phs)]
		rows = append(rows, types.Tuple{types.NewInt(int64(i)), types.NewUniText(types.UniText{Text: "x" + ph, Lang: types.LangEnglish, Phoneme: ph})})
	}
	addHeap(t, env, "t", cols, rows)
	if np := env.heaps["t"].NumPages(); np < 2*morselChunkPages || np >= 8*morselChunkPages {
		t.Fatalf("the table takes %d pages: 2 workers must claim pages and 8 stripe rows", np)
	}
	run := func(t *testing.T, cond plan.Expr, workers int, fuses bool) (got []types.Tuple, stats RunStats) {
		t.Helper()
		scan := scanNode("t", cols)
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
		if workers == 0 && fusedScan(cur.src) != fuses {
			t.Fatalf("the filter fused: %v, want %v", !fuses, fuses)
		}
		got, err = cur.All()
		settled(t, cur, res)
		if err != nil {
			t.Fatal(err)
		}
		return got, *cur.Stats
	}
	col := &plan.ColIdx{Idx: 1, Kind: types.KindUniText}
	for _, w := range windows {
		konst := types.NewUniText(types.UniText{Text: "c", Lang: types.LangEnglish, Phoneme: w.ph})
		cond := &plan.Psi{L: col, R: &plan.Const{Val: konst}, Threshold: w.k}
		var ref []types.Tuple
		for i, r := range rows {
			if i%7 != 3 && phonetic.EditDistance(w.ph, r[1].UniText().Phoneme) <= w.k {
				ref = append(ref, r)
			}
		}
		generic := &plan.AndOr{L: cond, R: &plan.Const{Val: types.NewBool(true)}}
		for _, workers := range []int{0, 2, 8} {
			t.Run(fmt.Sprintf("m=%d/k=%d/workers=%d", utf8.RuneCountInString(w.ph), w.k, workers), func(t *testing.T) {
				want, wantStats := run(t, generic, workers, false)
				got, stats := run(t, cond, workers, true)
				eqRowSets(t, got, want)
				eqRowSets(t, got, ref)
				if stats.PsiEvaluations != wantStats.PsiEvaluations || stats.OmegaProbes != wantStats.OmegaProbes {
					t.Errorf("%d Ψ evaluations and %d Ω probes, want %d and %d",
						stats.PsiEvaluations, stats.OmegaProbes, wantStats.PsiEvaluations, wantStats.OmegaProbes)
				}
			})
		}
		t.Run(fmt.Sprintf("m=%d/k=%d/selection", utf8.RuneCountInString(w.ph), w.k), func(t *testing.T) {
			checkKeyWindowSelection(t, env, cols, cond, w.ph, w.k)
		})
	}
}

// checkKeyWindowSelection runs the fused kernel of cond serially over the
// pages of env's table t and checks each page's selection against Ψ's key
// window around ph at threshold k, computed here from its definition.
func checkKeyWindowSelection(t *testing.T, env *heapEnv, cols []plan.ColInfo, cond plan.Expr, ph string, k int) {
	t.Helper()
	node := &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{scanNode("t", cols)}, Cols: cols, Cond: cond}
	cur, err := Run(env, node, nil, NewResources(context.Background(), 0))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	s, ok := cur.src.(*scanIter)
	if !ok || len(s.kern.preds) == 0 {
		t.Fatal("the filter did not fuse")
	}
	c := types.Summarize([]byte(ph))
	passes := func(keys []byte) bool {
		if !types.SlotSummarized(keys) {
			return true
		}
		r := types.SlotSummary(keys)
		return r.Runes-c.Runes <= k && c.Runes-r.Runes <= k &&
			bits.OnesCount64(c.Sig&^r.Sig) <= k && bits.OnesCount64(r.Sig&^c.Sig) <= k
	}
	h := env.heaps["t"]
	it := h.ScanRange(0, storage.PageID(h.NumPages()))
	for page := 0; ; page++ {
		more, err := it.NextPage(func(pg storage.Page) error {
			if _, _, _, err := s.kern.selectPage(&pg, 0, s.src, math.MaxInt); err != nil {
				return err
			}
			selected := map[int32]bool{}
			for _, r := range s.kern.sel {
				selected[int32(r.at&(keyedBit-1))] = true
			}
			for i := range pg.Len() {
				keys, live := pg.Keys(i)
				if want := live && passes(keys); selected[int32(i)] != want {
					rec, _ := pg.Record(i)
					row, _, _ := types.DecodeTuple(rec)
					t.Errorf("page %d slot %d (%v): selected %v, want %v", page, i, row, selected[int32(i)], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			return
		}
	}
}

// rowLoop is what rowLoopSelect selects and where it stops.
type rowLoop struct {
	sel []pairSel
	rowStop
}

// rowStop is rowLoop's counts and stop.
type rowStop struct {
	tested   int32
	scanned  int64
	ticks    uint32
	ord      int64
	stop, oi int
	stopped  bool
}

// rowLoopSelect is selectPage's reference, a row-at-a-time loop over the
// pairs of pg's live records with a block of np outer rows, from the record
// in slot from and outer row oi on: from tick count ticks and, for a striped
// share (mod > 0), ordinal ord, it takes each record's ordinal and leaves the
// share's others with a tick each, ticks each pair of its own, stops at the
// tick that checks for cancellation when canceled, and stops before a pair —
// at a record's first, before its ordinal — when the selection holds room
// pairs. It selects each pair whose keys test cannot take (keyed false) or
// passes, with the key tests made up to it, and counts the records whose
// first pair it reached.
func rowLoopSelect(pg *storage.Page, from, oi, room int, ticks uint32, ord, mod, idx int64, canceled bool, np int, test func(keys []byte, oi int) (keyed, pass bool)) rowLoop {
	r := rowLoop{rowStop: rowStop{ticks: ticks, ord: ord, stop: pg.Len()}}
	checks := func() bool {
		r.ticks++
		r.stopped = r.ticks%cancelInterval == 0 && canceled
		return r.stopped
	}
	for i := from; i < pg.Len(); i, oi = i+1, 0 {
		keys, live := pg.Keys(i)
		if !live {
			continue
		}
		if oi == 0 && len(r.sel) == room {
			r.stop = i
			break
		}
		if oi == 0 && mod != 0 {
			mine := r.ord%mod == idx
			if r.ord++; !mine {
				if checks() {
					r.stop = i
					break
				}
				continue
			}
		}
		for ; oi < np && len(r.sel) < room && !checks(); oi++ {
			if oi == 0 {
				r.scanned++
			}
			keyed, pass := test(keys, oi)
			if keyed {
				r.tested++
			}
			if !keyed || pass {
				r.sel = append(r.sel, pairSel{uint32(i) | uint32(b2i(keyed))*keyedBit | uint32(oi)<<16, r.tested})
			}
		}
		if oi < np {
			r.stop, r.oi = i, oi
			break
		}
	}
	return r
}

// selectPage splits a page into runs at its checkpoints and at its room,
// and walks a striped share itself; against rowLoopSelect, on heap pages with
// dead slots (the last page ending in a run of them), rows whose keys the
// test takes and key-less ones (a phoneme to convert, one of 280 runes,
// NULL), for Ψ blocks of 1, 2 and 3 outer rows with key tests and without
// (under an IN list), claimed and striped (two shares of three), with
// unlimited room and with a room of 7 pairs, which stops runs inside
// records, from tick counts that put the checkpoint on every pair of the
// page and past its last, with the query canceled and not, resuming at each
// stop until the page is done: the selection, the key tests, the records
// begun, the tick count, the ordinal, the stop (slot and outer row) and the
// checkpoint's error are the row loop's.
func TestSelectPageAsRowLoop(t *testing.T) {
	rs := keyWindowRunes(8)
	s, d, fresh := rs[:3], rs[3], rs[4:]
	pat := string(s) + strings.Repeat(string(d), 4)
	cols := []plan.ColInfo{{Rel: "t", Name: "id", Kind: types.KindInt}, {Rel: "t", Name: "name", Kind: types.KindUniText}}
	vals := []types.Value{
		types.NewUniText(types.UniText{Text: "x", Lang: types.LangEnglish}),
		types.NewUniText(types.UniText{Text: "nehru nehru", Lang: types.LangEnglish, Phoneme: keyTestLongPhoneme}),
		types.Null(),
	}
	for _, ph := range keyWindowRows(s, d, fresh, 1) {
		vals = append(vals, types.NewUniText(types.UniText{Text: "x" + ph, Lang: types.LangEnglish, Phoneme: ph}))
	}
	env := &heapEnv{mockEnv: newMockEnv(), heaps: map[string]*storage.Heap{}}
	var rows []types.Tuple
	for i := range 600 {
		rows = append(rows, types.Tuple{types.NewInt(int64(i)), vals[i*7%len(vals)]})
	}
	// Every seventh row is deleted, and the last ten, so that the last page
	// ends in dead slots, past which no checkpoint may fire.
	h, err := heapOf(env.labels(), schemaKinds(cols), rows, func(i int) bool { return i%7 == 3 || i >= len(rows)-10 })
	if err != nil {
		t.Fatal(err)
	}
	env.heaps["t"], env.tables["t"] = h, rows
	if np := h.NumPages(); np < 2 {
		t.Fatalf("the table takes %d pages, want 2 or more", np)
	}
	// The block's outer rows: pat at threshold 1, then two more patterns,
	// so that the rows' key tests pass different pairs.
	type outerRow struct {
		ph string
		k  int
	}
	block := []outerRow{{pat, 1}, {string(fresh[:3]) + strings.Repeat(string(d), 4), 2}, {pat, 0}}
	window := func(keys []byte, oi int) (bool, bool) {
		if !types.SlotSummarized(keys) {
			return false, false
		}
		c, k, r := types.Summarize([]byte(block[oi].ph)), block[oi].k, types.SlotSummary(keys)
		return true, r.Runes-c.Runes <= k && c.Runes-r.Runes <= k &&
			bits.OnesCount64(c.Sig&^r.Sig) <= k && bits.OnesCount64(r.Sig&^c.Sig) <= k
	}
	keyless := func([]byte, int) (bool, bool) { return false, false }
	col := &plan.ColIdx{Idx: 1, Kind: types.KindUniText}
	psi := func(o outerRow, langs []types.LangID) *plan.Psi {
		konst := types.NewUniText(types.UniText{Text: "c", Lang: types.LangEnglish, Phoneme: o.ph})
		return &plan.Psi{L: col, R: &plan.Const{Val: konst}, Threshold: o.k, Langs: langs}
	}
	for _, kc := range []struct {
		langs []types.LangID
		test  func([]byte, int) (bool, bool)
	}{{nil, window}, {[]types.LangID{types.LangEnglish}, keyless}} {
		for np := 1; np <= len(block); np++ {
			for _, canceled := range []bool{false, true} {
				t.Run(fmt.Sprintf("IN=%v/block=%d/canceled=%v", kc.langs, np, canceled), func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					node := &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{scanNode("t", cols)}, Cols: cols, Cond: psi(block[0], kc.langs)}
					cur, err := Run(env, node, nil, NewResources(ctx, 0))
					if err != nil {
						t.Fatal(err)
					}
					defer cur.Close()
					sc, ok := cur.src.(*scanIter)
					if !ok || len(sc.kern.preds) != 1 {
						t.Fatal("the filter did not fuse")
					}
					if canceled {
						cancel()
					}
					k, src := sc.kern, sc.src
					for _, o := range block[1:np] {
						x := psi(o, kc.langs)
						v, _ := k.ev.eval(x.R, nil)
						k.preds = append(k.preds, k.ev.compile(x, false, v, nil, 0))
					}
					k.pfs = k.pfs[:0]
					if k.keyTests(); (len(k.pfs) == np) != (kc.langs == nil) {
						t.Fatalf("%d key tests for a block of %d", len(k.pfs), np)
					}
					it, inside := h.ScanRange(0, storage.PageID(h.NumPages())), 0
					for {
						more, err := it.NextPage(func(pg storage.Page) error {
							for t0 := cancelInterval - np*pg.Len() - 2; t0 <= cancelInterval+1; t0++ {
								for _, share := range [][2]int64{{0, 0}, {3, 0}, {3, 2}} {
									for _, room := range []int{math.MaxInt, 7} {
										n, err := checkRowLoop(k, src, &pg, uint32(5*cancelInterval+t0), share, room, canceled, np, kc.test)
										if err != nil {
											return err
										}
										inside += n
									}
								}
							}
							return nil
						})
						if err != nil {
							t.Fatal(err)
						}
						if !more {
							break
						}
					}
					if np > 1 && inside == 0 {
						t.Error("no selection stopped inside a record")
					}
					src.mod, src.idx, src.n, k.oi = 0, 0, 0, 0
				})
			}
		}
	}
}

// checkRowLoop runs kernel k's selectPage over pg from its first slot, from
// tick count start and ordinal 4 in share (mod, idx), each time with room
// pairs, resuming where it stopped until the page is done or the checkpoint
// fails, and checks each call against rowLoopSelect from the same point. It
// returns how many times it resumed inside a record.
func checkRowLoop(k *pageKernel, src *recordSource, pg *storage.Page, start uint32, share [2]int64, room int, canceled bool, np int, test func([]byte, int) (bool, bool)) (inside int, err error) {
	src.mod, src.idx, src.n, k.ev.ticks, k.oi = share[0], share[1], 4, start, 0
	for from := 0; from < pg.Len(); {
		want := rowLoopSelect(pg, from, k.oi, room, k.ev.ticks, src.n, share[0], share[1], canceled, np, test)
		begun := k.streamed
		stop, oi, tested, err := k.selectPage(pg, from, src, room)
		got := rowStop{tested, k.streamed - begun, k.ev.ticks, src.n, stop, oi, errors.Is(err, ErrCanceled)}
		if !got.stopped && err != nil {
			return inside, err
		}
		if share[0] == 0 {
			got.ord = want.ord
		}
		if got != want.rowStop || !slices.Equal(k.sel, want.sel) || len(k.sel) > room {
			return inside, fmt.Errorf("from tick %d, share %v, room %d, slot %d, outer row %d:\n got %+v %v\nwant %+v %v", start, share, room, from, k.oi, got, k.sel, want.rowStop, want.sel)
		}
		if got.stopped {
			return inside, nil
		}
		from, k.oi, inside = stop, oi, inside+b2i(oi > 0)
	}
	return inside, nil
}
