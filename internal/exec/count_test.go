package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/mural-db/mural/internal/leakcheck"
	"github.com/mural-db/mural/internal/metrics"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

// reachedEnv counts, from outside the executor, the records a scan's
// page loop accepted. Every row of the tables below is a non-NULL UNITEXT in
// an admitted language, and the fused loop fails a record before the matcher
// only through the cancellation checkpoint or the operand-kind error, so a
// callback that returned nil is a row that reached the Ψ kernel.
type reachedEnv struct {
	*mockEnv
	reached atomic.Int64
}

type reachedScan struct {
	RecordScan
	env *reachedEnv
}

func (e *reachedEnv) ScanRecords(table string, lo, hi int64) (RecordScan, error) {
	rs, err := e.mockEnv.ScanRecords(table, lo, hi)
	if err != nil {
		return nil, err
	}
	return &reachedScan{RecordScan: rs, env: e}, nil
}

func (s *reachedScan) NextPage(fn func(pg storage.Page) error) (bool, error) {
	return perRecord(s.RecordScan, fn, func(serve func() error) error {
		err := serve()
		if err == nil {
			s.env.reached.Add(1)
		}
		return err
	})
}

// g2pLookups reads the process-wide G2P totals: G2P cache lookups (hits
// plus misses) and converter runs (conversions plus fallbacks).
func g2pLookups() (lookups, converted int64) {
	c := metrics.Default.Snapshot().Counters
	return c["mural_g2p_shared_cache_hits_total"] + c["mural_g2p_shared_cache_misses_total"],
		c["mural_g2p_conversions_total"] + c["mural_g2p_fallbacks_total"]
}

// The process-wide Ψ and G2P counters are published in batches, not per row;
// however a statement ends, what it added to mural_psi_evaluations_total must
// equal its own RunStats.PsiEvaluations and the number of rows that reached
// the kernel, and the mural_g2p_* totals must hold every phoneme lookup: one
// per statement for the constant, when it is compiled, and one per row that
// reached the kernel without a stored phoneme.
func TestPsiCountsExactOnEveryExit(t *testing.T) {
	// More surviving rows (3 in 5) than eight workers can park in the merge
	// channel and their current batches, so a cancellation after the first
	// row always lands mid-scan.
	const rows = 60000
	exits := []struct {
		name   string
		badRow bool
		drive  func(t *testing.T, cur *Cursor, cancel context.CancelFunc)
	}{
		{name: "drain", drive: func(t *testing.T, cur *Cursor, _ context.CancelFunc) {
			for {
				_, ok, err := cur.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return
				}
			}
		}},
		{name: "limit1", drive: func(t *testing.T, cur *Cursor, _ context.CancelFunc) {
			if _, ok, err := cur.Next(); err != nil || !ok {
				t.Fatalf("first Next = ok=%v err=%v", ok, err)
			}
			if _, ok, err := cur.Next(); err != nil || ok {
				t.Fatalf("Next past LIMIT 1 = ok=%v err=%v", ok, err)
			}
		}},
		{name: "cancel", drive: func(t *testing.T, cur *Cursor, cancel context.CancelFunc) {
			if _, ok, err := cur.Next(); err != nil || !ok {
				t.Fatalf("first Next = ok=%v err=%v", ok, err)
			}
			cancel()
			for {
				_, ok, err := cur.Next()
				if errors.Is(err, ErrCanceled) {
					return
				}
				if err != nil || !ok {
					t.Fatalf("Next after cancel = ok=%v err=%v, want ErrCanceled", ok, err)
				}
			}
		}},
		{name: "error", badRow: true, drive: func(t *testing.T, cur *Cursor, _ context.CancelFunc) {
			for {
				_, ok, err := cur.Next()
				if err != nil {
					if !strings.Contains(err.Error(), "LEXEQUAL operands must be text") {
						t.Fatalf("Next = %v, want the operand-kind error", err)
					}
					return
				}
				if !ok {
					t.Fatal("drained past the erroring row")
				}
			}
		}},
	}
	// Tables encoded once: all names, the same with a non-text value halfway
	// down, and the names without their stored phonemes, which the kernel
	// converts through the G2P cache.
	good, bad, bare := newMockEnv(), newMockEnv(), newMockEnv()
	mkUniTable(good, "t", rows)
	bad.tables["t"] = append([]types.Tuple(nil), good.tables["t"]...)
	bad.tables["t"][rows/2] = types.Tuple{types.NewInt(7)}
	for _, row := range good.tables["t"] {
		bare.tables["t"] = append(bare.tables["t"], types.Tuple{types.NewUniText(types.Compose(row[0].UniText().Text, types.LangEnglish))})
	}
	// workers 0 is the serial plan: no Gather, the cursor's own evaluator
	// runs the kernel.
	for _, workers := range []int{0, 1, 2, 8} {
		for _, exit := range exits {
			for _, stored := range []bool{true, false} {
				if exit.badRow && !stored {
					continue
				}
				t.Run(fmt.Sprintf("workers=%d/%s/stored=%v", workers, exit.name, stored), func(t *testing.T) {
					leakcheck.Check(t)
					env := &reachedEnv{mockEnv: good}
					switch {
					case exit.badRow:
						env.mockEnv = bad
					case !stored:
						env.mockEnv = bare
					}
					node := psiFilterScan("t", false)
					if workers > 0 {
						node = gatherPsiPlan(workers)
					}
					if exit.name == "limit1" {
						node = &plan.Node{Op: plan.OpLimit, Children: []*plan.Node{node}, Cols: node.Cols, LimitN: 1}
					}
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					before := mPsiEvals.Value()
					lookups0, converted0 := g2pLookups()
					cur, err := Run(env, node, nil, NewResources(ctx, 0))
					if err != nil {
						t.Fatal(err)
					}
					exit.drive(t, cur, cancel)
					if err := cur.Close(); err != nil {
						t.Fatalf("Close: %v", err)
					}
					published := mPsiEvals.Value() - before
					reached := env.reached.Load()
					if published != reached || cur.Stats.PsiEvaluations != reached {
						t.Errorf("published %d, RunStats %d, rows that reached the kernel %d: all three must agree",
							published, cur.Stats.PsiEvaluations, reached)
					}
					if exit.name == "drain" && reached != rows {
						t.Errorf("a full drain evaluated %d of %d rows", reached, rows)
					}
					lookups, converted := g2pLookups()
					wantLookups := int64(1)
					if !stored {
						wantLookups += reached
					}
					if lookups-lookups0 != wantLookups {
						t.Errorf("G2P lookups published = %d, want %d: one per statement for the constant plus one per reached row without a stored phoneme",
							lookups-lookups0, wantLookups)
					}
					if converted-converted0 > lookups-lookups0 {
						t.Errorf("G2P conversions published = %d for %d lookups", converted-converted0, lookups-lookups0)
					}
					if n := cur.ev.pool.InFlight(); n != 0 {
						t.Errorf("pool in-flight = %d, want 0", n)
					}
				})
			}
		}
	}
}

// The generic evaluator counts through the same two helpers; a statement that
// never enters a fused kernel still publishes at Close.
func TestGenericPathCountsPublishAtClose(t *testing.T) {
	env := newMockEnv()
	mkUniTable(env, "t", 100)
	node := psiFilterScan("t", false)
	// Column against column is a join shape, not a fusible one.
	node.Cond.(*plan.Psi).R = &plan.ColIdx{Idx: 0}
	before := mPsiEvals.Value()
	cur, err := Run(env, node, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.src.(*vectorFilterIter); !ok {
		t.Fatalf("root operator is %T, want the generic filter", cur.src)
	}
	if _, err := cur.All(); err != nil {
		t.Fatal(err)
	}
	if got := mPsiEvals.Value() - before; got != 100 || cur.Stats.PsiEvaluations != 100 {
		t.Errorf("published %d, RunStats %d, want 100 and 100", got, cur.Stats.PsiEvaluations)
	}
}
