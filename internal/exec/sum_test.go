package exec

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/types"
)

// SUM and AVG are functions of the multiset of inputs: values chosen so that
// naive left-to-right addition gives a different answer for almost every
// order must aggregate to one bit pattern under every permutation, ints and
// floats mixed.
func TestSumIsOrderIndependent(t *testing.T) {
	vals := []types.Value{
		types.NewFloat(1e16), types.NewFloat(1), types.NewFloat(-1e16), types.NewFloat(0.1),
		types.NewFloat(0.2), types.NewFloat(0.3), types.NewFloat(1e-9), types.NewFloat(-0.7),
		types.NewFloat(3e15), types.NewFloat(2.5), types.NewInt(7), types.NewInt(1 << 60),
		types.NewInt(-(1 << 60)), types.NewInt(-3), types.NewFloat(1e100), types.NewFloat(-1e100),
	}
	cols := []plan.ColInfo{{Rel: "t", Name: "v", Kind: types.KindFloat}}
	arg := &plan.ColIdx{Idx: 0, Kind: types.KindFloat}
	node := &plan.Node{
		Op:       plan.OpAggregate,
		Children: []*plan.Node{scanNode("t", cols)},
		Cols:     []plan.ColInfo{{Name: "sum", Kind: types.KindFloat}, {Name: "avg", Kind: types.KindFloat}},
		Aggs:     []plan.AggSpec{{Kind: sql.FuncSum, Arg: arg}, {Kind: sql.FuncAvg, Arg: arg}},
		Projs:    []plan.Expr{nil, nil},
	}
	rng := rand.New(rand.NewSource(18))
	var sum, avg uint64
	for i := 0; i < 100; i++ {
		rng.Shuffle(len(vals), func(a, b int) { vals[a], vals[b] = vals[b], vals[a] })
		env := newMockEnv()
		for _, v := range vals {
			env.tables["t"] = append(env.tables["t"], types.Tuple{v})
		}
		row := runAll(t, env, node)[0]
		s, a := math.Float64bits(row[0].Float()), math.Float64bits(row[1].Float())
		if i == 0 {
			sum, avg = s, a
		}
		if s != sum || a != avg {
			t.Fatalf("permutation %d: sum=%v avg=%v, first permutation gave sum=%v avg=%v",
				i, row[0].Float(), row[1].Float(), math.Float64frombits(sum), math.Float64frombits(avg))
		}
	}
	// The exact total is 1e-9 + 8.4 (+1 +0.1 +0.2 +0.3 -0.7 +2.5 +7 -3 = 7.4,
	// plus 3e15): correctly rounded, 3e15 + 7.4 is 3000000000000007.5.
	if got := math.Float64frombits(sum); got != 3000000000000007.5 {
		t.Errorf("sum = %v, want the correctly rounded 3000000000000007.5", got)
	}
}

func TestExactSumRoundsOnce(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}, 1},
		{[]float64{1e16, 1, -1e16}, 1},
		{[]float64{1, 1e100, 1, -1e100}, 2},
		// Half-way case: 2^53 + 1 is a tie that a trailing partial breaks.
		{[]float64{1 << 53, 1, 1e-30}, 1<<53 + 2},
		{[]float64{math.Inf(1), 1}, math.Inf(1)},
		{[]float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
		// The documented limit: a running total that leaves float64's range
		// stays Inf, so at this extreme the order still shows.
		{[]float64{1e308, 1e308, -1e308}, math.Inf(1)},
		{[]float64{1e308, -1e308, 1e308}, 1e308},
	} {
		var s exactSum
		for _, x := range tc.in {
			s.add(x)
		}
		if got := s.result(); got != tc.want {
			t.Errorf("exactSum%v = %v, want %v", tc.in, got, tc.want)
		}
	}
	var s exactSum
	s.add(math.Inf(1))
	s.add(math.Inf(-1))
	if !math.IsNaN(s.result()) {
		t.Errorf("Inf + -Inf = %v, want NaN", s.result())
	}
}

// An int total that leaves int64 moves into the exact accumulator instead of
// wrapping: the sum keeps its sign and its one bit pattern in every order.
func TestSumOfIntsNeverWraps(t *testing.T) {
	vals := []int64{math.MaxInt64, math.MaxInt64, 5, math.MinInt64, 1 << 40, -7}
	// Exactly 2^63 + 2^40 - 4, which rounds to 2^63 + 2^40.
	const want = float64(1<<63) + float64(1<<40)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		rng.Shuffle(len(vals), func(a, b int) { vals[a], vals[b] = vals[b], vals[a] })
		var st aggState
		for _, v := range vals {
			st.addInt(v)
		}
		if got := st.sum(); got != want {
			t.Fatalf("permutation %d (%v): sum = %v, want %v", i, vals, got, want)
		}
	}
	var neg aggState
	neg.addInt(math.MinInt64)
	neg.addInt(math.MinInt64)
	if got := neg.sum(); got != -float64(1<<63)*2 {
		t.Errorf("MinInt64 twice = %v, want -2^64", got)
	}
}
