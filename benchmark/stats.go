package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// record is the one result type of the benchmark: a metric of a workload,
// summarised over n whole runs.
type record struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	P25      float64 `json:"p25"`
	P75      float64 `json:"p75"`
}

// results is what -repeat writes to out/results.json and -compare reads.
type results struct {
	CPUs       int      `json:"cpus"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Go         string   `json:"go"`
	Commit     string   `json:"commit"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Records    []record `json:"records"`
}

// percentile returns the nearest-rank p-quantile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// quartiles returns the quartiles of v as Python's
// statistics.quantiles(v, n=4) gives them (the "exclusive" method), because
// that is how the spread of a metric is judged against its bound.
func quartiles(v []float64) (p25, med, p75 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// summarise folds the metric values of n whole runs into records.
func summarise(workload string, runs []map[string]float64) []record {
	var out []record
	for _, def := range allMetrics() {
		var vals []float64
		for _, r := range runs {
			if v, ok := r[def.Name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		p25, med, p75 := quartiles(vals)
		out = append(out, record{Workload: workload, Metric: def.Name, Unit: def.Unit, N: len(vals), Median: med, P25: p25, P75: p75})
	}
	return out
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints one row per workload × metric of two result files and
// reports whether any end-to-end metric regressed. A metric whose run-to-run
// spread (interquartile range over median, on either side) exceeds its bound
// is unresolved, not unchanged.
func compare(w io.Writer, base, cur *results) (regressed bool) {
	type key struct{ workload, metric string }
	byKey := make(map[key]record, len(cur.Records))
	for _, r := range cur.Records {
		byKey[key{r.Workload, r.Metric}] = r
	}
	defs := make(map[string]metricDef)
	for _, d := range allMetrics() {
		defs[d.Name] = d
	}
	fmt.Fprintf(w, "%-11s %-38s %-6s %12s %12s %8s %6s  %s\n", "workload", "metric", "unit", "base", "new", "new/base", "bound", "verdict")
	for _, b := range base.Records {
		n, ok := byKey[key{b.Workload, b.Metric}]
		if !ok {
			continue
		}
		def := defs[b.Metric]
		verdict, bound := "-", "-"
		if def.Bound > 0 {
			bound = fmt.Sprintf("%.2f", def.Bound)
			spread := ratio(b.P75-b.P25, b.Median)
			if s := ratio(n.P75-n.P25, n.Median); s > spread {
				spread = s
			}
			worse := ratio(n.Median-b.Median, b.Median)
			if def.Better == "higher" {
				worse = -worse
			}
			switch {
			case spread > def.Bound:
				verdict = "unresolved"
			case worse > def.Bound:
				verdict, regressed = "regressed", true
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(w, "%-11s %-38s %-6s %12.5g %12.5g %8.3f %6s  %s\n",
			b.Workload, b.Metric, b.Unit, b.Median, n.Median, ratio(n.Median, b.Median), bound, verdict)
	}
	return regressed
}
