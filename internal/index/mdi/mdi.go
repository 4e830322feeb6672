// Package mdi implements the Metric-Distance Index used by the paper's
// outside-the-server baseline (Table 4, "Index"): a standard B-tree over
// the distance of each object to a fixed pivot string. By the triangle
// inequality, any object x within distance k of a query q satisfies
//
//	|d(x, pivot) − d(q, pivot)| <= k
//
// so a B-tree range scan over [d(q,pivot)−k, d(q,pivot)+k] yields a
// candidate superset that is then filtered with the exact edit distance.
// This is exactly the kind of index a PL/SQL implementation can build with
// stock database features, which is why the paper uses it as the fair
// outside-the-server comparison point.
package mdi

import (
	"encoding/binary"
	"fmt"

	"github.com/mural-db/mural/internal/index/btree"
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/storage"
)

// Index is a pivot-distance index over phoneme strings.
type Index struct {
	bt    *btree.BTree
	pivot string
}

// DefaultPivot is used when the caller does not supply one. Any fixed
// string works; a mid-length string keeps the distance histogram spread.
const DefaultPivot = "aeioun"

// Create builds an empty MDI in an empty attached file.
func Create(pool *storage.Pool, file storage.FileID, pivot string) (*Index, error) {
	if pivot == "" {
		pivot = DefaultPivot
	}
	bt, err := btree.Create(pool, file)
	if err != nil {
		return nil, err
	}
	return &Index{bt: bt, pivot: pivot}, nil
}

// Open loads an existing MDI. The pivot must match the one used at build
// time; the caller (catalog) is responsible for persisting it.
func Open(pool *storage.Pool, file storage.FileID, pivot string) (*Index, error) {
	if pivot == "" {
		pivot = DefaultPivot
	}
	bt, err := btree.Open(pool, file)
	if err != nil {
		return nil, err
	}
	return &Index{bt: bt, pivot: pivot}, nil
}

// key layout: 4-byte big-endian pivot distance, then the phoneme bytes, so
// that range scans by distance are contiguous and the exact string is
// available for in-index filtering.
func (ix *Index) key(phoneme string) []byte {
	d := phonetic.EditDistance(phoneme, ix.pivot)
	buf := make([]byte, 4, 4+len(phoneme))
	binary.BigEndian.PutUint32(buf, uint32(d))
	return append(buf, phoneme...)
}

// Insert indexes a phoneme string under the record's RID.
func (ix *Index) Insert(phoneme string, rid storage.RID) error {
	return ix.bt.Insert(ix.key(phoneme), rid)
}

// Delete removes an entry.
func (ix *Index) Delete(phoneme string, rid storage.RID) error {
	return ix.bt.Delete(ix.key(phoneme), rid)
}

// RangeSearch returns the RIDs of all indexed strings within edit distance
// threshold of the query phoneme, plus the number of index pages visited
// and the number of candidates the triangle-inequality range produced
// before exact filtering (the MDI's selectivity is much worse than a
// metric tree's, which is the point of the baseline).
func (ix *Index) RangeSearch(phoneme string, threshold int) (rids []storage.RID, pages, candidates int, err error) {
	dq := phonetic.EditDistance(phoneme, ix.pivot)
	lo := dq - threshold
	if lo < 0 {
		lo = 0
	}
	hi := dq + threshold
	loKey := make([]byte, 4)
	binary.BigEndian.PutUint32(loKey, uint32(lo))
	hiKey := make([]byte, 4, 5)
	binary.BigEndian.PutUint32(hiKey, uint32(hi))
	// All keys with distance hi share the prefix; extend the bound past any
	// phoneme suffix.
	hiKey = append(hiKey, 0xFF)
	pages, err = ix.bt.RangeCount(loKey, hiKey, func(key []byte, rid storage.RID) bool {
		candidates++
		obj := string(key[4:])
		if phonetic.WithinDistance(phoneme, obj, threshold) {
			rids = append(rids, rid)
		}
		return true
	})
	if err != nil {
		return nil, pages, candidates, fmt.Errorf("mdi: range search: %w", err)
	}
	return rids, pages, candidates, nil
}

// Pivot returns the pivot string.
func (ix *Index) Pivot() string { return ix.pivot }

// NumPages returns the allocated page count of the index file.
func (ix *Index) NumPages() (storage.PageID, error) { return ix.bt.NumPages() }
