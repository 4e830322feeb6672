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

// NextPage implements exec.RecordScan.
func (r *recordScan) NextPage(fn func(rec []byte) error) (bool, error) {
	return r.it.NextPage(fn)
}

// Close implements exec.RecordScan.
func (r *recordScan) Close() error { return nil }

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
	e.mu.RLock()
	h := e.heaps[table]
	if h != nil {
		// Pin while still under the read lock: a DROP TABLE that has not yet
		// removed the heap entry will wait for this fetch before it releases
		// the heap's disk (see pinSet).
		e.pins.pin(table)
		defer e.pins.unpin(table)
	}
	e.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("mural: no such table %q", table)
	}
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
func (e *Engine) IndexSearch(index string, lo, hi []byte) ([]storage.RID, int, error) {
	e.mu.RLock()
	bt := e.btrees[index]
	if bt != nil {
		e.pins.pin(index)
		defer e.pins.unpin(index)
	}
	e.mu.RUnlock()
	if bt == nil {
		return nil, 0, fmt.Errorf("mural: no such btree index %q", index)
	}
	var rids []storage.RID
	pages, err := bt.RangeCount(lo, hi, func(_ []byte, rid storage.RID) bool {
		rids = append(rids, rid)
		return true
	})
	return rids, pages, err
}

// MTreeSearch implements exec.Env.
func (e *Engine) MTreeSearch(index string, phoneme string, threshold int) ([]storage.RID, int, error) {
	e.mu.RLock()
	mt := e.mtrees[index]
	if mt != nil {
		// The handle escapes the read lock for the duration of the probe; the
		// pin keeps a concurrent DROP INDEX from detaching its file under it.
		e.pins.pin(index)
		defer e.pins.unpin(index)
	}
	e.mu.RUnlock()
	if mt == nil {
		return nil, 0, fmt.Errorf("mural: no such mtree index %q", index)
	}
	return mt.RangeSearch(phoneme, threshold)
}

// MDISearch implements exec.Env.
func (e *Engine) MDISearch(index string, phoneme string, threshold int) ([]storage.RID, int, int, error) {
	e.mu.RLock()
	md := e.mdis[index]
	if md != nil {
		e.pins.pin(index)
		defer e.pins.unpin(index)
	}
	e.mu.RUnlock()
	if md == nil {
		return nil, 0, 0, fmt.Errorf("mural: no such mdi index %q", index)
	}
	return md.RangeSearch(phoneme, threshold)
}

// QGramSearch implements exec.Env.
func (e *Engine) QGramSearch(index string, phoneme string, threshold int) ([]storage.RID, int, error) {
	e.mu.RLock()
	qg := e.qgrams[index]
	if qg != nil {
		e.pins.pin(index)
		defer e.pins.unpin(index)
	}
	e.mu.RUnlock()
	if qg == nil {
		return nil, 0, fmt.Errorf("mural: no such qgram index %q", index)
	}
	rids, st, err := qg.RangeSearch(phoneme, threshold)
	return rids, st.Candidates, err
}

// G2P implements exec.Env.
func (e *Engine) G2P() *phonetic.SharedCache { return e.g2p }
