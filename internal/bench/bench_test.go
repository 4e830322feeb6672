package bench

import "testing"

// Small-scale smoke tests: every experiment harness must run end-to-end, and
// its deterministic shape (answers, series, predicted costs, the optimizer's
// choice) must hold even at reduced scale. Timings are logged, never compared:
// a wall-clock assertion holds on one machine and flakes on another.

func TestRunTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table4 in -short mode")
	}
	rows, err := RunTable4(Table4Config{Names: 1200, ProbeNames: 20, Queries: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]Table4Row{}
	for _, r := range rows {
		byKey[r.Impl+"/"+r.Index] = r
		t.Logf("%-8s %-6s scan=%.4fs join=%.4fs (scanM=%d joinM=%d)",
			r.Impl, r.Index, r.ScanSec, r.JoinSec, r.ScanMatches, r.JoinMatches)
	}
	// All configurations must agree on the answers.
	core := byKey["core/none"]
	for k, r := range byKey {
		if r.ScanMatches != core.ScanMatches || r.JoinMatches != core.JoinMatches {
			t.Errorf("%s: matches disagree with core/none: %+v vs %+v", k, r, core)
		}
	}
}

func TestRunFigure6Correlation(t *testing.T) {
	if testing.Short() {
		t.Skip("figure6 in -short mode")
	}
	res, err := RunFigure6(Fig6Config{TableSizes: []int{200, 600}, Thresholds: []int{1, 3}, DupFactors: []int{1, 2}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 8 {
		t.Fatalf("points = %d", len(res.Points))
	}
	t.Logf("log-log correlation = %.3f over %d points", res.LogCorrelation, len(res.Points))
	for _, p := range res.Points {
		t.Logf("  %-20s cost=%10.1f runtime=%8.2fms rows=%d", p.Query, p.Cost, p.RuntimeMS, p.Rows)
	}
}

func TestRunFigure7PlanChoice(t *testing.T) {
	if testing.Short() {
		t.Skip("figure7 in -short mode")
	}
	res, err := RunFigure7(Fig7Config{Authors: 150, Publishers: 40, Books: 1200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plan1: cost=%.0f runtime=%.4fs", res.Plan1.PredictedCost, res.Plan1.RuntimeSec)
	t.Logf("plan2: cost=%.0f runtime=%.4fs", res.Plan2.PredictedCost, res.Plan2.RuntimeSec)
	if res.Plan1.PredictedCost >= res.Plan2.PredictedCost {
		t.Errorf("optimizer must predict plan1 cheaper: %.0f vs %.0f",
			res.Plan1.PredictedCost, res.Plan2.PredictedCost)
	}
	if !res.ChosenMatchesPlan1 {
		t.Errorf("unforced optimizer did not pick plan1:\n%s", res.ChosenPlanText)
	}
}

func TestRunFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure8 in -short mode")
	}
	points, err := RunFigure8(Fig8Config{Synsets: 4000, Targets: []int{50, 200}, Seed: 4, IncludePinned: true})
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]Fig8Point{}
	for _, p := range points {
		series[p.Series] = append(series[p.Series], p)
		t.Logf("%-16s |TC|=%5d %.5fs", p.Series, p.ClosureSize, p.Seconds)
	}
	for _, want := range []string{"core-noindex", "core-btree", "outside-noindex", "outside-btree", "core-pinned"} {
		if len(series[want]) == 0 {
			t.Errorf("missing series %s", want)
		}
	}
}

func TestRunRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("regression in -short mode")
	}
	res, err := RunRegression(RegressionConfig{Rows: 1500, Runs: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plain=%.4fs multilingual=%.4fs ratio=%.2f", res.PlainSec, res.MultiSec, res.Ratio)
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in -short mode")
	}
	split, err := RunAblationMTreeSplit(1500, 10, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range split {
		t.Logf("mtree split %-8s build=%.4fs pages/search=%.1f total=%d",
			r.Policy, r.BuildSec, r.AvgSearchPages, r.IndexPages)
	}
	if len(split) != 2 {
		t.Error("expected two split policies")
	}

	cache, err := RunAblationClosureCache(4000, 2000, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cache {
		t.Logf("closure %-22s %.5fs (%d probes)", r.Mode, r.Seconds, r.Probes)
	}

	ed, err := RunAblationEditDistance(300, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ed {
		t.Logf("editdist %-8s %.4fs matches=%d", r.Algorithm, r.Seconds, r.Matches)
	}
}

func TestAblationPsiIndexesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("E10 in -short mode")
	}
	rows, err := RunAblationPsiIndexes(1200, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 4 paths × 3 thresholds
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("k=%d %-8s %.4fs matches=%d", r.Threshold, r.Path, r.AvgSec, r.Matches)
	}
}
