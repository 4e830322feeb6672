package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"sync"

	"github.com/mural-db/mural/internal/types"
)

// The oracles below are the benchmark's own: they share no code with the
// engine's Ψ and Ω operators, so an engine bug cannot hide in both.

// levenshtein is the plain two-row edit distance over code points.
func levenshtein(a, b []rune) int {
	if len(a) == 0 {
		return len(b)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			d := prev[j-1]
			if a[i-1] != b[j-1] {
				d++
			}
			if v := prev[j] + 1; v < d {
				d = v
			}
			if v := cur[j-1] + 1; v < d {
				d = v
			}
			cur[j] = d
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// within reports levenshtein(a, b) <= k; strings whose lengths differ by
// more than k cannot be that close, which spares most of the table.
func within(a, b []rune, k int) bool {
	if d := len(a) - len(b); d > k || -d > k {
		return false
	}
	return levenshtein(a, b) <= k
}

// psiMatches returns, for each query, the indices of the candidates whose
// phonemes are within k edits of it.
func psiMatches(queries, cands [][]rune, k int) [][]int {
	out := make([][]int, len(queries))
	parallelFor(len(queries), func(q int) {
		for i, c := range cands {
			if within(queries[q], c, k) {
				out[q] = append(out[q], i)
			}
		}
	})
	return out
}

// parallelFor runs f(0..n-1) on every core and waits.
func parallelFor(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// rowHash hashes one result row in a canonical text form. UNITEXT values
// count by text and language; the phoneme is derived data.
func rowHash(t types.Tuple) uint64 {
	h := fnv.New64a()
	for _, v := range t {
		switch v.Kind() {
		case types.KindInt:
			fmt.Fprintf(h, "i%d|", v.Int())
		case types.KindUniText:
			u := v.UniText()
			fmt.Fprintf(h, "u%s\x00%d|", u.Text, u.Lang)
		case types.KindText:
			fmt.Fprintf(h, "t%s|", v.Text())
		default:
			fmt.Fprintf(h, "?%s|", v.String())
		}
	}
	return h.Sum64()
}

// answer is the order-insensitive digest of a result set: the row count and
// the wrapping sum of the row hashes.
type answer struct {
	rows int
	sum  uint64
}

func (a *answer) add(t types.Tuple) {
	a.rows++
	a.sum += rowHash(t)
}

func digestRows(rows []types.Tuple) answer {
	var a answer
	for _, t := range rows {
		a.add(t)
	}
	return a
}

// wantAnswer builds the check of a read whose whole result set is known.
func wantAnswer(want answer) func([]types.Tuple) error {
	return func(rows []types.Tuple) error {
		if got := digestRows(rows); got != want {
			return fmt.Errorf("got %d rows (digest %016x), oracle says %d rows (digest %016x)", got.rows, got.sum, want.rows, want.sum)
		}
		return nil
	}
}

// folder accumulates an order-sensitive digest of generated inputs, or of
// (statement, expected answer) pairs, for the golden file.
type folder struct{ h hash.Hash64 }

func (f *folder) add(parts ...any) {
	if f.h == nil {
		f.h = fnv.New64a()
	}
	for _, p := range parts {
		fmt.Fprintf(f.h, "%v\x1f", p)
	}
}

func (f *folder) String() string {
	if f.h == nil {
		return "0"
	}
	return fmt.Sprintf("%016x", f.h.Sum64())
}
