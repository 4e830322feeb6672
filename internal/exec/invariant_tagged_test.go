//go:build muralinvariants

package exec

import (
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/metrics"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
)

func TestCursorNextAfterClosePanics(t *testing.T) {
	c := NewSliceCursor(nil, nil)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "Next on a closed cursor") {
			t.Fatalf("expected no-Next-after-Close invariant panic, got %v", r)
		}
	}()
	_, _, _ = c.Next()
}

// Per-row code writes no process-wide metric: the fused Ψ scan and the Ψ
// nested-loops join publish their counts once per batch, so a statement over
// thousands of rows or pairs makes a few dozen metric writes. A write per
// record or per pair shows as at least one write per row.
func TestPerRowCodeWritesNoSharedMetric(t *testing.T) {
	env := newMockEnv()
	mkUniTable(env, "t", 20000)
	mkUniTable(env, "o", 100)
	mkUniTable(env, "i", 200)
	cols := []plan.ColInfo{{Name: "n", Kind: types.KindUniText}}
	inner := &plan.Node{Op: plan.OpMaterialize, Children: []*plan.Node{scanNode("i", cols)}, Cols: cols}
	join := &plan.Node{Op: plan.OpPsiJoin, Children: []*plan.Node{scanNode("o", cols), inner},
		Cols: append(cols, cols...), Cond: &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.ColIdx{Idx: 1}, Threshold: 1}}
	for _, tc := range []struct {
		name string
		node *plan.Node
		rows int64
	}{
		{"fused scan", psiFilterScan("t", false), 20000},
		{"nested-loops join", join, 100 * 200},
	} {
		before := metrics.Writes()
		runAll(t, env, tc.node)
		if w := metrics.Writes() - before; w*16 > tc.rows {
			t.Errorf("%s over %d rows made %d metric writes: per-row code writes a process-wide metric", tc.name, tc.rows, w)
		}
	}
}
