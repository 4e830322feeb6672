package mural

import (
	"errors"
	"fmt"

	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

// ClosureResult reports an in-engine (core) closure computation over a
// taxonomy table: the Figure 8 "Core" series. The Ω operator itself runs
// against the pinned in-memory hierarchy (§4.3); these methods compute the
// same closure directly against the stored taxonomy table, with and
// without a B+Tree on the parent attribute, so the paper's index axis can
// be profiled for the core implementation too.
type ClosureResult struct {
	// Size is |TC(root)|.
	Size int
	// HeapScans counts full-table scans (no-index mode: one per BFS level).
	HeapScans int
	// IndexProbes counts B-tree descents (index mode: one per member).
	IndexProbes int
	// IndexPages counts index pages visited.
	IndexPages int
}

// ComputeClosureScan computes the downward transitive closure of root over
// a taxonomy table laid out as (idCol INT, parentCol INT, ...), using one
// full heap scan per BFS level — the core no-index strategy.
func (e *Engine) ComputeClosureScan(table, idCol, parentCol string, root int64) (*ClosureResult, error) {
	t, ok := e.cat.TableByName(table)
	if !ok {
		return nil, fmt.Errorf("mural: no such table %q", table)
	}
	idIdx := t.ColumnIndex(idCol)
	parIdx := t.ColumnIndex(parentCol)
	if idIdx < 0 || parIdx < 0 {
		return nil, fmt.Errorf("mural: table %q lacks columns %q/%q", table, idCol, parentCol)
	}
	res := &ClosureResult{}
	closure := map[int64]bool{root: true}
	frontier := map[int64]bool{root: true}
	for len(frontier) > 0 {
		next := make(map[int64]bool)
		np, err := e.TablePages(table)
		if err != nil {
			return nil, err
		}
		scan, err := e.ScanRecords(table, 0, np)
		if err != nil {
			return nil, err
		}
		res.HeapScans++
		visit := func(pg storage.Page) error {
			for i := range pg.Len() { //lint:gov-exempt a closure BFS runs outside any statement, with no query resources to check
				rec, live := pg.Record(i)
				if !live {
					continue
				}
				tup, _, err := types.DecodeTuple(rec)
				if err != nil {
					return err
				}
				p := tup[parIdx]
				if p.IsNull() || !frontier[p.Int()] {
					continue
				}
				id := tup[idIdx].Int()
				if !closure[id] {
					closure[id] = true
					next[id] = true
				}
			}
			return nil
		}
		for more := true; more; {
			if more, err = scan.NextPage(visit); err != nil {
				return nil, errors.Join(err, scan.Close())
			}
		}
		if err := scan.Close(); err != nil {
			return nil, err
		}
		frontier = next
	}
	res.Size = len(closure)
	return res, nil
}

// ComputeClosureIndex computes the same closure using a B+Tree index on the
// parent attribute (§5.4's indexed core series): one index probe per
// closure member.
func (e *Engine) ComputeClosureIndex(table, idCol, parentCol, indexName string, root int64) (*ClosureResult, error) {
	t, ok := e.cat.TableByName(table)
	if !ok {
		return nil, fmt.Errorf("mural: no such table %q", table)
	}
	idIdx := t.ColumnIndex(idCol)
	if idIdx < 0 {
		return nil, fmt.Errorf("mural: table %q lacks column %q", table, idCol)
	}
	meta, ok := e.cat.IndexByName(indexName)
	if !ok || meta.Table != table || meta.Column != parentCol {
		return nil, fmt.Errorf("mural: %q is not an index on %s(%s)", indexName, table, parentCol)
	}
	res := &ClosureResult{}
	closure := map[int64]bool{root: true}
	frontier := []int64{root}
	for len(frontier) > 0 {
		var next []int64
		for _, node := range frontier {
			key := types.KeyOf(types.NewInt(node))
			rids, pages, err := e.IndexSearch(indexName, key, key)
			if err != nil {
				return nil, err
			}
			res.IndexProbes++
			res.IndexPages += pages
			tuples, err := e.FetchRIDs(table, rids)
			if err != nil {
				return nil, err
			}
			for _, tup := range tuples {
				id := tup[idIdx].Int()
				if !closure[id] {
					closure[id] = true
					next = append(next, id)
				}
			}
		}
		frontier = next
	}
	res.Size = len(closure)
	return res, nil
}
