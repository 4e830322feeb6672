package phonetic_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/mural-db/mural/internal/dataset"
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/types"
)

// nameProbes is the pruning protocol over realistic phonemes: the phonemes
// of the benchmark's 25,000 seed-1 generated names, and 256 probes drawn
// from them with rand.NewSource(7). It lives outside package phonetic
// because the generator imports it.
type nameProbes struct {
	names  [][]byte
	sums   []types.Summary
	probes []string
}

var (
	namesOnce sync.Once
	names     nameProbes
)

func loadNameProbes() *nameProbes {
	namesOnce.Do(func() {
		recs := dataset.GenerateNames(dataset.NamesConfig{Records: dataset.DefaultNameRecords, Seed: 1, NoiseRate: -1})
		for _, r := range recs {
			b := []byte(r.Name.Phoneme)
			names.names = append(names.names, b)
			names.sums = append(names.sums, types.Summarize(b))
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 256; i++ {
			names.probes = append(names.probes, recs[rng.Intn(len(recs))].Name.Phoneme)
		}
	})
	return &names
}

// The prefilter is sound on realistic names — every true match passes it —
// and it prunes: the share of probe × name pairs it lets through to the edit
// distance stays under a bound with headroom over what it measures (0.38 %,
// 5.3 % and 25.9 % at k = 1, 2, 3 when it was written).
func TestPrefilterPrunesNames(t *testing.T) {
	np := loadNameProbes()
	maxPass := [...]float64{1: 0.01, 2: 0.07, 3: 0.30}
	var passed, matches [len(maxPass)]int
	for _, p := range np.probes {
		var ms [len(maxPass)]*phonetic.BoundedMatcher
		for k := 1; k < len(maxPass); k++ {
			ms[k] = phonetic.NewBoundedMatcher(p, k)
		}
		for i, c := range np.names {
			// One call settles every k: d is exact whenever d ≤ 3.
			d, ok := phonetic.BoundedEditDistance(p, string(c), len(maxPass)-1)
			for k := 1; k < len(maxPass); k++ {
				pass := !ms[k].Rejects(np.sums[i])
				if pass {
					passed[k]++
				}
				if ok && d <= k {
					matches[k]++
					if !pass {
						t.Fatalf("k=%d: the prefilter rejects %q against %q at distance %d", k, c, p, d)
					}
				}
			}
		}
	}
	pairs := float64(len(np.probes) * len(np.names))
	for k := 1; k < len(maxPass); k++ {
		share := float64(passed[k]) / pairs
		t.Logf("k=%d: prefilter passes %.2f %% of pairs, true matches %.3f %%", k, 100*share, 100*float64(matches[k])/pairs)
		if share > maxPass[k] {
			t.Errorf("k=%d: the prefilter passes %.2f %% of pairs, want ≤ %.0f %%", k, 100*share, 100*maxPass[k])
		}
	}
}

// One compiled probe against every stored phoneme is a Ψ scan's pair loop,
// and a Ψ join's when the name's summary is shared: ns/pair of the whole
// matcher, and the share of pairs its prefilter lets through.
func BenchmarkBoundedMatcherNames(b *testing.B) {
	np := loadNameProbes()
	for _, k := range []int{1, 2, 3} {
		ms := make([]*phonetic.BoundedMatcher, len(np.probes))
		for i, p := range np.probes {
			ms[i] = phonetic.NewBoundedMatcher(p, k)
		}
		passed := 0
		for _, m := range ms {
			for _, s := range np.sums {
				if !m.Rejects(s) {
					passed++
				}
			}
		}
		pass := float64(passed) / float64(len(ms)*len(np.sums))
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			matched := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := ms[i%len(ms)]
				for _, c := range np.names {
					if m.MatchBytes(c) {
						matched++
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(np.names)), "ns/pair")
			b.ReportMetric(pass, "pass-share")
			benchSink = matched
		})
	}
}

// benchSink keeps the benchmark's matches observable, so the compiler
// cannot drop the calls.
var benchSink int
