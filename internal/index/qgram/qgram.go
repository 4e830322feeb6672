// Package qgram implements a q-gram inverted index for approximate string
// matching — the "alternate index structures" the paper's §5.3 conclusion
// says it plans to explore after finding the M-Tree's metric pruning weak
// on phoneme strings.
//
// Every indexed string is decomposed into overlapping grams of q runes
// (padded at the boundaries), and an inverted list maps each gram to the
// RIDs of strings containing it. A query at edit-distance threshold k uses
// the classic count filter: a string within distance k of the query must
// share at least
//
//	max(|s|, |q|) − q + 1 − k·q
//
// grams with it (each edit destroys at most q grams). Candidates passing
// the count filter are verified with the exact banded edit distance over
// the gram-stored string. When the count bound is non-positive (short
// strings or large k) the filter degenerates and the index falls back to
// scanning its lexicon — the same graceful degradation the metric indexes
// exhibit, reported via the Stats so benchmarks can see it.
//
// The index lives in memory and rebuilds from the base table on open (like
// the pinned WordNet hierarchies of §4.3, it trades reload time for query
// speed; the heap remains the durable copy).
package qgram

import (
	"fmt"
	"sync"

	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/storage"
)

// DefaultQ is the gram size; 2 suits the short phoneme strings of the name
// workload (3-grams would make the count filter vacuous beyond k=1).
const DefaultQ = 2

// Index is an in-memory positional q-gram index over phoneme strings.
type Index struct {
	mu    sync.RWMutex
	lists map[string][]int32 // gram -> posting list (entry ids, sorted)
	// entries holds the indexed strings and their RIDs; posting lists
	// reference entries by position.
	entries []entry
	// free entry slots from deletions, reused by inserts.
	free []int32
}

type entry struct {
	s    string
	rid  storage.RID
	live bool
}

// New creates an empty index.
func New() *Index {
	return &Index{lists: make(map[string][]int32)}
}

// grams decomposes s with boundary padding ('#' prefix, '$' suffix), so
// edits at the string ends also destroy q grams.
func grams(s string) []string {
	const q = DefaultQ
	runes := make([]rune, 0, len(s)+2*(q-1))
	for i := 0; i < q-1; i++ {
		runes = append(runes, '#')
	}
	runes = append(runes, []rune(s)...)
	for i := 0; i < q-1; i++ {
		runes = append(runes, '$')
	}
	if len(runes) < q {
		return nil
	}
	out := make([]string, 0, len(runes)-q+1)
	for i := 0; i+q <= len(runes); i++ {
		out = append(out, string(runes[i:i+q]))
	}
	return out
}

// Insert indexes a phoneme string under the record's RID.
func (ix *Index) Insert(phoneme string, rid storage.RID) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var id int32
	if n := len(ix.free); n > 0 {
		id = ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.entries[id] = entry{s: phoneme, rid: rid, live: true}
	} else {
		id = int32(len(ix.entries))
		ix.entries = append(ix.entries, entry{s: phoneme, rid: rid, live: true})
	}
	for _, g := range grams(phoneme) {
		ix.lists[g] = append(ix.lists[g], id)
	}
	return nil
}

// Delete removes a previously indexed (phoneme, rid) entry. Posting lists
// keep the dead id (skipped at query time) — the index is rebuilt on open,
// so tombstones never accumulate across restarts.
func (ix *Index) Delete(phoneme string, rid storage.RID) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for i := range ix.entries {
		e := &ix.entries[i]
		if e.live && e.rid == rid && e.s == phoneme {
			e.live = false
			ix.free = append(ix.free, int32(i))
			return nil
		}
	}
	return fmt.Errorf("qgram: delete: entry not found")
}

// Len returns the number of live entries.
func (ix *Index) Len() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return int64(len(ix.entries) - len(ix.free))
}

// Stats reports what one search cost.
type Stats struct {
	// Candidates passed the count filter and were verified exactly.
	Candidates int
	// Degenerate marks searches where the count bound was non-positive and
	// the index scanned its whole lexicon.
	Degenerate bool
}

// RangeSearch returns the RIDs of all indexed strings within edit distance
// threshold of the query phoneme.
func (ix *Index) RangeSearch(phoneme string, threshold int) ([]storage.RID, Stats, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var st Stats
	var rids []storage.RID

	qGrams := grams(phoneme)
	qLen := len([]rune(phoneme))

	// Count filter bound for each candidate s:
	// shared >= max(|s|,|q|) + q − 1 − q·k  (padded gram count is len+q−1).
	// Using the query side alone gives a sound per-candidate bound check
	// after counting.
	counts := make(map[int32]int)
	for _, g := range qGrams {
		for _, id := range ix.lists[g] {
			if ix.entries[id].live {
				counts[id]++
			}
		}
	}
	minShared := func(sLen int) int {
		m := sLen
		if qLen > m {
			m = qLen
		}
		return m + DefaultQ - 1 - DefaultQ*threshold
	}
	// Degenerate when even a maximally long candidate needs <= 0 shared
	// grams: every indexed string is a candidate.
	if minShared(qLen) <= 0 {
		st.Degenerate = true
		for i := range ix.entries {
			e := &ix.entries[i]
			if !e.live {
				continue
			}
			st.Candidates++
			if phonetic.WithinDistance(phoneme, e.s, threshold) {
				rids = append(rids, e.rid)
			}
		}
		return rids, st, nil
	}
	for id, shared := range counts {
		e := &ix.entries[id]
		sLen := len([]rune(e.s))
		if shared < minShared(sLen) {
			continue
		}
		st.Candidates++
		if phonetic.WithinDistance(phoneme, e.s, threshold) {
			rids = append(rids, e.rid)
		}
	}
	// Strings sharing no gram at all can still be within k when the bound
	// for their length is <= 0 (very short strings): sweep those.
	for i := range ix.entries {
		e := &ix.entries[i]
		if !e.live {
			continue
		}
		if _, counted := counts[int32(i)]; counted {
			continue
		}
		if minShared(len([]rune(e.s))) > 0 {
			continue
		}
		st.Candidates++
		if phonetic.WithinDistance(phoneme, e.s, threshold) {
			rids = append(rids, e.rid)
		}
	}
	return rids, st, nil
}
