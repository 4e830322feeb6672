package mural

import (
	"fmt"
	"os"

	"github.com/mural-db/mural/internal/catalog"
	"github.com/mural-db/mural/internal/index/btree"
	"github.com/mural-db/mural/internal/index/mdi"
	"github.com/mural-db/mural/internal/index/mtree"
	"github.com/mural-db/mural/internal/index/qgram"
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

// index is the engine's handle on one secondary index, the analog of the
// single access-method interface the paper's prototype reaches every index
// through. The index's kind is decided once, by openIndex; the rest of the
// engine inserts, deletes, searches and releases through the handle.
type index struct {
	meta *catalog.Index
	// col is the indexed column's position in its table's rows.
	col  int
	phon *phonetic.Registry
	// bt is a BTREE index; nil for the metric kinds.
	bt *btree.BTree
	// metric is an M-Tree, MDI or q-gram index, keyed by the column's
	// phonemes; nil for a BTREE.
	metric interface {
		Insert(phoneme string, rid storage.RID) error
		Delete(phoneme string, rid storage.RID) error
	}
}

// openIndex builds the handle for meta's kind: an empty index when create
// is set (allocating meta.File, which the caller releases if the index is
// not committed), else the one its data file holds. A q-gram index lives in
// memory, keeps meta.File zero and starts empty whatever create says: the
// caller fills it from the table (backfill). Called with e.mu held.
func (e *Engine) openIndex(meta *catalog.Index, create bool) (*index, error) {
	t, ok := e.cat.TableByName(meta.Table)
	if !ok {
		return nil, fmt.Errorf("mural: index %q references missing table %q", meta.Name, meta.Table)
	}
	ix := &index{meta: meta, col: t.ColumnIndex(meta.Column), phon: e.phon}
	if !ix.hasFile() {
		ix.metric = qgram.New()
		return ix, nil
	}
	if create {
		meta.File = e.cat.AllocateFile()
	}
	if err := e.attachFile(meta.File); err != nil {
		return nil, err
	}
	var err error
	switch meta.Kind {
	case sql.IndexBTree:
		open := btree.Open
		if create {
			open = btree.Create
		}
		ix.bt, err = open(e.pool, meta.File)
	case sql.IndexMTree:
		open := mtree.Open
		if create {
			open = mtree.Create
		}
		ix.metric, err = open(e.pool, meta.File, mtree.SplitRandom)
	case sql.IndexMDI:
		open := mdi.Open
		if create {
			open, meta.Pivot = mdi.Create, mdi.DefaultPivot
		}
		ix.metric, err = open(e.pool, meta.File, meta.Pivot)
	default:
		err = fmt.Errorf("mural: unknown index kind %v", meta.Kind)
	}
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// hasFile reports whether the index keeps a data file. A q-gram index does
// not: its lists live in memory and are rebuilt from the table on open,
// like the pinned WordNet hierarchies of §4.3.
func (ix *index) hasFile() bool { return ix.meta.Kind != sql.IndexQGram }

// insert adds the row's entry under rid: its value's order-preserving key
// in a B-tree, its phoneme in a metric index. A NULL indexes nothing.
func (ix *index) insert(tup types.Tuple, rid storage.RID) error {
	v := tup[ix.col]
	switch {
	case v.IsNull():
		return nil
	case ix.bt != nil:
		return ix.bt.Insert(types.KeyOf(v), rid)
	}
	return ix.metric.Insert(ix.phon.ToPhoneme(v.UniText()), rid)
}

// delete removes the entry insert added for the row.
func (ix *index) delete(tup types.Tuple, rid storage.RID) error {
	v := tup[ix.col]
	switch {
	case v.IsNull():
		return nil
	case ix.bt != nil:
		return ix.bt.Delete(types.KeyOf(v), rid)
	}
	return ix.metric.Delete(ix.phon.ToPhoneme(v.UniText()), rid)
}

// keyRange returns the RIDs of a B-tree's keys in [lo, hi] and the pages
// it visited; nil lo/hi leave the bound open.
func (ix *index) keyRange(lo, hi []byte) ([]storage.RID, int, error) {
	if ix.bt == nil {
		return nil, 0, fmt.Errorf("mural: index %q is not a btree index", ix.meta.Name)
	}
	var rids []storage.RID
	pages, err := ix.bt.RangeCount(lo, hi, func(_ []byte, rid storage.RID) bool {
		rids = append(rids, rid)
		return true
	})
	return rids, pages, err
}

// metricSearch returns the RIDs of a metric index's entries within edit
// distance threshold of phoneme and the pages it visited (none for the
// memory-resident q-gram lists).
func (ix *index) metricSearch(phoneme string, threshold int) ([]storage.RID, int, error) {
	switch m := ix.metric.(type) {
	case *mtree.Index:
		return m.RangeSearch(phoneme, threshold)
	case *mdi.Index:
		rids, pages, _, err := m.RangeSearch(phoneme, threshold)
		return rids, pages, err
	case *qgram.Index:
		rids, _, err := m.RangeSearch(phoneme, threshold)
		return rids, 0, err
	}
	return nil, 0, fmt.Errorf("mural: index %q is not a metric index", ix.meta.Name)
}

// backfill inserts every row of the index's table into it. It commits in
// chunks of at most a quarter of the pool's frames, so the no-steal policy
// never pins more pages than the pool holds; a chunk of a q-gram index
// dirties no page. Called with e.mu held: by CREATE INDEX inside its open
// batch, and by loadIndex to rebuild a q-gram index.
func (e *Engine) backfill(ix *index) error {
	chunk := max(1, min(createIndexChunkPages, e.cfg.BufferPages/4))
	return eachRow(e.heaps[ix.meta.Table], func(rid storage.RID, tup types.Tuple) error {
		if err := ix.insert(tup, rid); err != nil {
			return err
		}
		if e.pool.BatchPages() < chunk {
			return nil
		}
		if err := e.commitBatch(); err != nil {
			return err
		}
		// The caller commits or aborts the batch reopened here.
		return e.pool.BeginBatch()
	})
}

// loadIndex opens the handle of a committed index from its data file, or
// rebuilds a q-gram index from its table, and makes it the index's handle.
// Called with e.mu held.
func (e *Engine) loadIndex(meta *catalog.Index) error {
	ix, err := e.openIndex(meta, false)
	if err != nil {
		return err
	}
	if !ix.hasFile() {
		if err := e.backfill(ix); err != nil {
			return err
		}
	}
	e.indexes[meta.Name] = ix
	return nil
}

// indexesOn returns the handles of a table's indexes. Called with e.mu held.
func (e *Engine) indexesOn(table string) []*index {
	metas := e.cat.IndexesOn(table, "")
	out := make([]*index, len(metas))
	for i, m := range metas {
		out[i] = e.indexes[m.Name]
	}
	return out
}

// dropIndex makes an index unreachable, waits out the searches pinned on
// it (see pinSet) and releases its data file. Called with e.mu held once
// nothing can find the index in the catalog any more.
//
//lint:lock-held-io pinned searches never reacquire e.mu, so draining under the write lock cannot deadlock
func (e *Engine) dropIndex(name string) {
	ix, ok := e.indexes[name]
	delete(e.indexes, name)
	e.pins.wait(name)
	if ok && ix.hasFile() {
		e.releaseFile(ix.meta.File)
	}
}

// releaseFile detaches a data file from the pool, closes it and deletes it.
func (e *Engine) releaseFile(id storage.FileID) {
	if d, ok := e.disks[id]; ok {
		_ = e.pool.DetachDisk(id)
		_ = d.Close()
		delete(e.disks, id)
	}
	if e.cfg.Dir != "" {
		_ = os.Remove(dataFilePath(e.cfg.Dir, id))
	}
}

// eachRow decodes the live rows of a heap in order and calls fn with each;
// the first error fn or the heap returns ends the walk.
func eachRow(h *storage.Heap, fn func(rid storage.RID, tup types.Tuple) error) error {
	it := h.Scan()
	for {
		rid, rec, ok, err := it.Next()
		if err != nil || !ok {
			return err
		}
		tup, _, err := types.DecodeTuple(rec)
		if err != nil {
			return err
		}
		if err := fn(rid, tup); err != nil {
			return err
		}
	}
}
