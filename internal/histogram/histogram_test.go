package histogram

import (
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mural-db/mural/internal/types"
)

func skewedKeys(n int) []string {
	// Zipf-ish head plus a long tail of near-singletons.
	var keys []string
	for i := 0; len(keys) < n; i++ {
		reps := n / ((i + 1) * (i + 2))
		if reps == 0 {
			reps = 1
		}
		for j := 0; j < reps && len(keys) < n; j++ {
			keys = append(keys, fmt.Sprintf("val%03d", i))
		}
	}
	return keys
}

func TestBuildEmpty(t *testing.T) {
	h := Build(nil, 10)
	if h.TotalRows != 0 || h.Distinct() != 0 {
		t.Error("empty histogram must be all-zero")
	}
	if h.EqSelectivity("x") != 0 {
		t.Error("empty histogram selectivity must be 0")
	}
	if h.ApproxSelectivity("x", 2) != 0 {
		t.Error("empty histogram approx selectivity must be 0")
	}
}

func TestBuildFrequentOrdering(t *testing.T) {
	h := Build(skewedKeys(1000), 10)
	if len(h.Frequent) != 10 {
		t.Fatalf("frequent count = %d", len(h.Frequent))
	}
	for i := 1; i < len(h.Frequent); i++ {
		if h.Frequent[i].Count > h.Frequent[i-1].Count {
			t.Error("frequent buckets must be sorted by count desc")
		}
	}
	if h.Frequent[0].Key != "val000" {
		t.Errorf("most frequent = %q", h.Frequent[0].Key)
	}
	var freqRows int64
	for _, b := range h.Frequent {
		freqRows += b.Count
	}
	if h.TailRows != h.TotalRows-freqRows {
		t.Error("TailRows accounting")
	}
}

func TestBuildFewDistinct(t *testing.T) {
	h := Build([]string{"a", "b", "a", "a", "b", "c"}, 10)
	if len(h.Frequent) != 3 || h.TailRows != 0 || h.TailDistinct != 0 {
		t.Errorf("small-domain histogram: %+v", h)
	}
	if got := h.EqSelectivity("a"); got != 0.5 {
		t.Errorf("EqSelectivity(a) = %g, want 0.5", got)
	}
	if got := h.EqSelectivity("zzz"); got != 0 {
		t.Errorf("EqSelectivity(zzz) = %g, want 0 with no tail", got)
	}
}

func TestEqSelectivityTail(t *testing.T) {
	h := Build(skewedKeys(1000), 5)
	// A tail value's selectivity is TailRows/TailDistinct/Total.
	want := float64(h.TailRows) / float64(h.TailDistinct) / float64(h.TotalRows)
	if got := h.EqSelectivity("not-a-frequent-value"); got != want {
		t.Errorf("tail selectivity = %g, want %g", got, want)
	}
}

func TestSelectivityBounds(t *testing.T) {
	f := func(seed int64, threshold uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]string, 200)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", rng.Intn(30))
		}
		h := Build(keys, 10)
		for _, q := range []string{"k0", "k100", "zz"} {
			for _, sel := range []float64{
				h.EqSelectivity(q),
				h.ApproxSelectivity(q, int(threshold%5)),
				h.RangeSelectivity("a", "z", true, true),
			} {
				if sel < 0 || sel > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestApproxSelectivityGrowsWithThreshold(t *testing.T) {
	keys := []string{"nehru", "neru", "nehrou", "gandi", "gandhi", "patel", "menon", "saha", "bose", "raman", "nehru", "nehru"}
	h := Build(keys, 10)
	prev := -1.0
	for k := 0; k <= 4; k++ {
		sel := h.ApproxSelectivity("nehru", k)
		if sel < prev {
			t.Errorf("selectivity decreased at threshold %d: %g < %g", k, sel, prev)
		}
		prev = sel
	}
	if h.ApproxSelectivity("nehru", 0) < h.EqSelectivity("nehru") {
		t.Error("approx at k=0 must cover exact matches")
	}
}

func TestApproxSelectivityAccuracyOnSkewedData(t *testing.T) {
	// The frequent values dominate; the estimate should land within a
	// factor of ~3 of the truth for queries near a frequent value.
	keys := skewedKeys(5000)
	h := Build(keys, 10)
	truth := 0
	for _, k := range keys {
		if k == "val000" || k == "val001" {
			truth++ // within distance 1 of "val000": val001..val009 differ in last char? "val000" vs "val001" distance 1
		}
	}
	_ = truth
	est := h.ApproxSelectivity("val000", 1)
	// Count true matches.
	real := 0
	for _, k := range keys {
		if within1(k, "val000") {
			real++
		}
	}
	trueSel := float64(real) / float64(len(keys))
	if est < trueSel/4 || est > trueSel*4 {
		t.Errorf("estimate %g vs truth %g: off by more than 4x", est, trueSel)
	}
}

func within1(a, b string) bool {
	if a == b {
		return true
	}
	if len(a) != len(b) {
		return false
	}
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	return diff <= 1
}

func TestRangeSelectivity(t *testing.T) {
	var keys []string
	for i := 0; i < 100; i++ {
		keys = append(keys, fmt.Sprintf("%03d", i))
	}
	h := Build(keys, 10)
	full := h.RangeSelectivity("", "", false, false)
	if full < 0.99 {
		t.Errorf("open range = %g, want ~1", full)
	}
	half := h.RangeSelectivity("000", "049", true, true)
	if half < 0.2 || half > 0.8 {
		t.Errorf("half range = %g, want ~0.5", half)
	}
	empty := h.RangeSelectivity("zzz", "zzzz", true, true)
	if empty > 0.2 {
		t.Errorf("out-of-domain range = %g", empty)
	}
}

// numKey keys a number the way ANALYZE does (histKey in package mural).
func numKey(x float64) string { return hex.EncodeToString(types.KeyOf(types.NewFloat(x))) }

// A numeric range interpolates on the values, not on a byte of their key: the
// key of every integer ≥ 2 shares its first hex digits, so a byte-wise
// estimate put every such bound at one end of the domain.
func TestRangeSelectivityNumeric(t *testing.T) {
	build := func(lo, step float64, n int) *Histogram {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = numKey(lo + float64(i)*step)
		}
		return Build(keys, DefaultFrequentValues)
	}
	ints, negs, floats := build(0, 1, 256), build(-128, 1, 256), build(0, 0.1, 256)
	for _, tc := range []struct {
		name string
		h    *Histogram
		x    float64
		less bool // col < x, else col >= x
		want float64
	}{
		{"id < 102", ints, 102, true, 102.0 / 256},
		{"id >= 100", ints, 100, false, 156.0 / 256},
		{"id < 2", ints, 2, true, 2.0 / 256},
		{"id >= 0", ints, 0, false, 1},
		{"v < 0 over -128..127", negs, 0, true, 0.5},
		{"v >= -64 over -128..127", negs, -64, false, 0.75},
		{"f < 12.8 over 0..25.5", floats, 12.8, true, 0.5},
		{"f >= 19.2 over 0..25.5", floats, 19.2, false, 0.25},
	} {
		var got float64
		if tc.less {
			got = tc.h.RangeSelectivity("", numKey(tc.x), false, true)
		} else {
			got = tc.h.RangeSelectivity(numKey(tc.x), "", true, false)
		}
		if math.Abs(got-tc.want) > 0.05 {
			t.Errorf("%s: selectivity %.3f, want %.3f ± 0.05", tc.name, got, tc.want)
		}
	}
}

func TestJoinSelectivity(t *testing.T) {
	a := Build(skewedKeys(1000), 10)
	b := Build(skewedKeys(500), 10)
	sel := a.JoinSelectivity(b)
	want := 1 / float64(max64(a.Distinct(), b.Distinct()))
	if sel != want {
		t.Errorf("JoinSelectivity = %g, want %g", sel, want)
	}
	empty := Build(nil, 10)
	if got := a.JoinSelectivity(empty); got != 0 {
		t.Errorf("join with empty = %g", got)
	}
}

func TestApproxJoinSelectivityGrowsWithThreshold(t *testing.T) {
	keys := []string{"nehru", "neru", "nehrou", "gandi", "gandhi", "patel", "menon"}
	h := Build(keys, 10)
	s0 := h.ApproxJoinSelectivity(h, 0)
	s3 := h.ApproxJoinSelectivity(h, 3)
	if s3 < s0 {
		t.Errorf("approx join selectivity must grow with threshold: %g < %g", s3, s0)
	}
	if s0 <= 0 || s3 > 1 {
		t.Errorf("bounds: s0=%g s3=%g", s0, s3)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestAvgKeyLen(t *testing.T) {
	h := Build([]string{"ab", "abcd"}, 10)
	if h.AvgKeyLen != 3 {
		t.Errorf("AvgKeyLen = %g", h.AvgKeyLen)
	}
}

func TestMinMax(t *testing.T) {
	h := Build([]string{"m", "a", "z", "q"}, 2)
	if h.Min != "a" || h.Max != "z" {
		t.Errorf("Min/Max = %q/%q", h.Min, h.Max)
	}
}

// TestEqSelectivitySumsToOne: summing EqSelectivity over every distinct
// value must recover ~1.0 (frequent values exactly, tail uniformly).
func TestEqSelectivitySumsToOne(t *testing.T) {
	keys := skewedKeys(2000)
	h := Build(keys, 10)
	distinct := map[string]bool{}
	for _, k := range keys {
		distinct[k] = true
	}
	sum := 0.0
	for k := range distinct {
		sum += h.EqSelectivity(k)
	}
	if sum < 0.98 || sum > 1.02 {
		t.Errorf("selectivities sum to %g, want ~1", sum)
	}
}
