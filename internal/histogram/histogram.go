// Package histogram implements the end-biased histograms (Ioannidis,
// VLDB'93) that the paper leverages for selectivity estimation (§3.4.1):
// the K most frequent values of an attribute are stored exactly with their
// frequencies, and the remaining ("tail") values are assumed uniformly
// distributed. For the approximate-matching Ψ operator, the selectivity of
// a threshold query is first estimated over the stored frequent values and
// then inflated by a threshold-dependent factor to model fuzzy matches in
// the tail — the exact procedure of the paper's §3.4.1.
package histogram

import (
	"encoding/hex"
	"sort"

	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/types"
)

// DefaultFrequentValues is the paper's histogram width ("the ten
// most-frequent values ... are stored ... explicitly").
const DefaultFrequentValues = 10

// Bucket is one exactly-counted frequent value. For UNITEXT attributes the
// key is the materialized phoneme string; for other attributes it is the
// value's canonical string form.
type Bucket struct {
	Key   string
	Count int64
}

// Histogram summarizes one attribute.
type Histogram struct {
	// Frequent holds the top-K values by count, descending.
	Frequent []Bucket
	// TotalRows is the number of non-null rows summarized.
	TotalRows int64
	// TailRows is TotalRows minus the frequent counts.
	TailRows int64
	// TailDistinct is the number of distinct values outside Frequent.
	TailDistinct int64
	// AvgKeyLen is the mean key length in runes (the l̄ of Table 2).
	AvgKeyLen float64
	// Min and Max bound the key domain lexicographically.
	Min, Max string
}

// Build constructs an end-biased histogram with k frequent values from a
// stream of keys. A nil or empty input yields a usable all-zero histogram.
func Build(keys []string, k int) *Histogram {
	if k <= 0 {
		k = DefaultFrequentValues
	}
	h := &Histogram{}
	if len(keys) == 0 {
		return h
	}
	counts := make(map[string]int64, len(keys))
	totalLen := 0
	h.Min, h.Max = keys[0], keys[0]
	for _, key := range keys {
		counts[key]++
		totalLen += len([]rune(key))
		if key < h.Min {
			h.Min = key
		}
		if key > h.Max {
			h.Max = key
		}
	}
	h.TotalRows = int64(len(keys))
	h.AvgKeyLen = float64(totalLen) / float64(len(keys))

	buckets := make([]Bucket, 0, len(counts))
	for key, c := range counts {
		buckets = append(buckets, Bucket{Key: key, Count: c})
	}
	sort.Slice(buckets, func(i, j int) bool {
		if buckets[i].Count != buckets[j].Count {
			return buckets[i].Count > buckets[j].Count
		}
		return buckets[i].Key < buckets[j].Key
	})
	if len(buckets) > k {
		h.Frequent = buckets[:k]
	} else {
		h.Frequent = buckets
	}
	var freqRows int64
	for _, b := range h.Frequent {
		freqRows += b.Count
	}
	h.TailRows = h.TotalRows - freqRows
	h.TailDistinct = int64(len(counts) - len(h.Frequent))
	return h
}

// Distinct returns the estimated number of distinct values.
func (h *Histogram) Distinct() int64 {
	return int64(len(h.Frequent)) + h.TailDistinct
}

// EqSelectivity estimates the fraction of rows equal to key.
func (h *Histogram) EqSelectivity(key string) float64 {
	if h.TotalRows == 0 {
		return 0
	}
	for _, b := range h.Frequent {
		if b.Key == key {
			return float64(b.Count) / float64(h.TotalRows)
		}
	}
	if h.TailDistinct == 0 {
		return 0
	}
	// Uniform tail assumption.
	return float64(h.TailRows) / float64(h.TailDistinct) / float64(h.TotalRows)
}

// RangeSelectivity estimates the fraction of rows with lo <= key <= hi
// lexicographically. Empty bounds are open. The estimate counts frequent
// values exactly and assumes a uniform spread of tail values between Min
// and Max (crude, but matches what serial histograms afford).
func (h *Histogram) RangeSelectivity(lo, hi string, hasLo, hasHi bool) float64 {
	if h.TotalRows == 0 {
		return 0
	}
	var rows float64
	for _, b := range h.Frequent {
		if hasLo && b.Key < lo {
			continue
		}
		if hasHi && b.Key > hi {
			continue
		}
		rows += float64(b.Count)
	}
	// Tail contribution: interpolate positionally between Min and Max.
	if h.TailRows > 0 {
		frac := 1.0
		if hasLo || hasHi {
			loPos, hiPos := 0.0, 1.0
			if hasLo {
				loPos = position(lo, h.Min, h.Max)
			}
			if hasHi {
				hiPos = position(hi, h.Min, h.Max)
			}
			frac = hiPos - loPos
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
		}
		rows += float64(h.TailRows) * frac
	}
	sel := rows / float64(h.TotalRows)
	if sel > 1 {
		sel = 1
	}
	return sel
}

// position maps a key to [0,1] within [min, max]. Numbers — ANALYZE keys an
// INT or FLOAT column by its order-preserving key, hex-encoded (histKey) —
// interpolate on their values; any other key on the first byte where min and
// max differ, a coarse lexicographic interpolation.
func position(key, min, max string) float64 {
	if k, ok := number(key); ok {
		if lo, ok := number(min); ok {
			if hi, ok := number(max); ok {
				return interpolate(k, lo, hi)
			}
		}
	}
	if max <= min {
		return 0.5
	}
	// Compare at the first byte where min and max differ.
	i := 0
	for i < len(min) && i < len(max) && min[i] == max[i] {
		i++
	}
	lo, hi := 0.0, 255.0
	if i < len(min) {
		lo = float64(min[i])
	}
	if i < len(max) {
		hi = float64(max[i])
	}
	k := 0.0
	if i < len(key) {
		k = float64(key[i])
	}
	return interpolate(k, lo, hi)
}

// number is the value of a numeric histogram key; ok=false for any other.
func number(key string) (float64, bool) {
	b, err := hex.DecodeString(key)
	if err != nil {
		return 0, false
	}
	return types.NumberOfKey(b)
}

// interpolate is k's position in [lo, hi], clamped to [0, 1]; 0.5 for an
// empty interval.
func interpolate(k, lo, hi float64) float64 {
	if !(hi > lo) {
		return 0.5
	}
	switch p := (k - lo) / (hi - lo); {
	case p >= 1:
		return 1
	case p > 0:
		return p
	default:
		return 0 // below lo, or NaN
	}
}

// ApproxSelectivity estimates the fraction of rows within edit distance
// threshold of the query key, per the paper's §3.4.1 procedure:
//
//  1. The frequent values are matched exactly against the query (they store
//     real phoneme strings), giving the first approximation.
//  2. The tail is inflated by a threshold factor: tail values are assumed
//     to match at the same per-distinct rate as the frequent values do,
//     which is the histogram-as-sample heuristic behind the paper's
//     "fraction corresponding to the threshold factor".
func (h *Histogram) ApproxSelectivity(key string, threshold int) float64 {
	if h.TotalRows == 0 {
		return 0
	}
	var matchedRows int64
	matchedDistinct := 0
	m := phonetic.NewBoundedMatcher(key, threshold)
	for _, b := range h.Frequent {
		if m.Match(b.Key) {
			matchedRows += b.Count
			matchedDistinct++
		}
	}
	sel := float64(matchedRows) / float64(h.TotalRows)
	if h.TailRows > 0 && len(h.Frequent) > 0 {
		rate := float64(matchedDistinct) / float64(len(h.Frequent))
		sel += float64(h.TailRows) / float64(h.TotalRows) * rate
	}
	if sel > 1 {
		sel = 1
	}
	// Fuzzy matching never selects less than an exact match would; keep a
	// floor of one tail value so joins do not degenerate to zero cost.
	if sel == 0 && h.TailDistinct > 0 {
		sel = float64(h.TailRows) / float64(h.TailDistinct) / float64(h.TotalRows) * float64(threshold+1)
		if sel > 1 {
			sel = 1
		}
	}
	return sel
}

// JoinSelectivity estimates the fraction of the cross product surviving an
// equality join between two attributes summarized by h and other, using
// the standard 1/max(distinct) rule.
func (h *Histogram) JoinSelectivity(other *Histogram) float64 {
	if h.TotalRows == 0 || other.TotalRows == 0 {
		return 0
	}
	d1, d2 := h.Distinct(), other.Distinct()
	d := d1
	if d2 > d {
		d = d2
	}
	if d == 0 {
		return 0
	}
	return 1 / float64(d)
}

// ApproxJoinSelectivity estimates the fraction of the cross product
// surviving a Ψ join at the given threshold: the equality join selectivity
// inflated by the expected number of distinct values within the threshold
// ball, estimated from each histogram's frequent values.
func (h *Histogram) ApproxJoinSelectivity(other *Histogram, threshold int) float64 {
	base := h.JoinSelectivity(other)
	if base == 0 {
		return 0
	}
	// Average ball size (in distinct values) measured on the frequent sets.
	ball := func(hist *Histogram) float64 {
		if len(hist.Frequent) < 2 {
			return float64(threshold + 1)
		}
		total := 0
		for i, a := range hist.Frequent {
			m := phonetic.NewBoundedMatcher(a.Key, threshold)
			for j, b := range hist.Frequent {
				if i == j {
					continue
				}
				if m.Match(b.Key) {
					total++
				}
			}
		}
		n := len(hist.Frequent)
		return 1 + float64(total)/float64(n)
	}
	sel := base * (ball(h) + ball(other)) / 2
	if sel > 1 {
		sel = 1
	}
	return sel
}
