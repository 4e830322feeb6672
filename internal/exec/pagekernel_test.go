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
	const rows = 2000
	env := &heapEnv{mockEnv: newMockEnv(), heaps: map[string]*storage.Heap{}}
	env.net = omegaNet()
	mixed := keyTestValues()
	name := func(i int) types.Value {
		if i%4 == 0 {
			return mixed[i/4%len(mixed)]
		}
		lang := omegaLangs[i%len(omegaLangs)]
		return u(env.net.Lemma(lang, wordnet.SynsetID(i*7919%env.net.NumSynsets())), lang)
	}
	cols := []plan.ColInfo{{Rel: "t", Name: "id", Kind: types.KindInt}, {Rel: "t", Name: "name", Kind: types.KindUniText}, {Rel: "t", Name: "alias", Kind: types.KindUniText}}
	var good, bad []types.Tuple
	for i := range rows {
		good = append(good, types.Tuple{types.NewInt(int64(i)), name(i), name(rows - 1 - i)})
	}
	// In bad, each column holds an INT and, later on the same page, a FLOAT.
	bad = append(bad, good...)
	for col, at := range map[int]int{1: rows / 2, 2: rows/2 + 3} {
		bad[at] = append(types.Tuple(nil), bad[at]...)
		bad[at][col] = types.NewInt(7)
		bad[at+20] = append(types.Tuple(nil), bad[at+20]...)
		bad[at+20][col] = types.NewFloat(0.5)
	}
	for table, rs := range map[string][]types.Tuple{"t": good, "bad": bad} {
		h, err := heapOf(schemaKinds(cols), rs, func(i int) bool { return i%7 == 3 })
		if err != nil {
			t.Fatal(err)
		}
		env.heaps[table] = h
		env.tables[table] = rs
	}
	if np := env.heaps["t"].NumPages(); np < 2*morselChunkPages || np >= 8*morselChunkPages {
		t.Fatalf("the table takes %d pages: 2 workers must claim pages and 8 stripe rows", np)
	}
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
