package mural

import (
	"fmt"

	"github.com/mural-db/mural/internal/exec"
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

// The Engine implements exec.Env: all executor data access lands here.

// TablePages implements exec.Env.
func (e *Engine) TablePages(table string) (int64, error) {
	e.mu.RLock()
	h := e.heaps[table]
	e.mu.RUnlock()
	if h == nil {
		return 0, fmt.Errorf("mural: no such table %q", table)
	}
	return int64(h.NumPages()), nil
}

// recordScan adapts a heap iterator to exec.RecordScan: the raw-record,
// page-at-a-time feed behind the executor's scans.
type recordScan struct {
	it *storage.Iter
}

// NextPage implements exec.RecordScan: the heap page, passed through.
func (r *recordScan) NextPage(fn func(pg storage.Page) error) (bool, error) {
	return r.it.NextPage(fn)
}

// Close implements exec.RecordScan: it releases the pins of the heap
// iterator's current run.
func (r *recordScan) Close() error {
	r.it.Close()
	return nil
}

// ScanRecords implements exec.Env: raw records of heap pages [lo, hi).
func (e *Engine) ScanRecords(table string, lo, hi int64) (exec.RecordScan, error) {
	e.mu.RLock()
	h := e.heaps[table]
	e.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("mural: no such table %q", table)
	}
	return &recordScan{it: h.ScanRange(storage.PageID(lo), storage.PageID(hi))}, nil
}

// FetchRIDs implements exec.Env.
func (e *Engine) FetchRIDs(table string, rids []storage.RID) ([]types.Tuple, error) {
	h, ok := pinned(e, e.heaps, table)
	if !ok {
		return nil, fmt.Errorf("mural: no such table %q", table)
	}
	defer e.pins.unpin(table)
	out := make([]types.Tuple, 0, len(rids))
	for _, rid := range rids {
		rec, err := h.Get(rid)
		if err != nil {
			return nil, err
		}
		tup, _, err := types.DecodeTuple(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, tup)
	}
	return out, nil
}

// IndexSearch implements exec.Env (B-tree range probe).
func (e *Engine) IndexSearch(name string, lo, hi []byte) ([]storage.RID, int, error) {
	ix, ok := pinned(e, e.indexes, name)
	if !ok {
		return nil, 0, fmt.Errorf("mural: no such index %q", name)
	}
	defer e.pins.unpin(name)
	return ix.keyRange(lo, hi)
}

// MetricSearch implements exec.Env (M-Tree, MDI or q-gram probe).
func (e *Engine) MetricSearch(name, phoneme string, threshold int) ([]storage.RID, int, error) {
	ix, ok := pinned(e, e.indexes, name)
	if !ok {
		return nil, 0, fmt.Errorf("mural: no such index %q", name)
	}
	defer e.pins.unpin(name)
	return ix.metricSearch(phoneme, threshold)
}

// G2P implements exec.Env.
func (e *Engine) G2P() *phonetic.SharedCache { return e.g2p }
