// Package exec interprets physical plans produced by the plan package with
// one batch-at-a-time operator (BatchIter) per plan node. All data access
// flows through the Env interface, which the engine implements over its
// heaps and indexes; the multilingual operators reach the phonetic and
// semantic runtimes the same way, mirroring how the paper's in-kernel
// operators call the linked Dhvani converter and the pinned WordNet
// hierarchies.
package exec

import (
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// Env is the runtime surface the executor needs from the engine.
type Env interface {
	// TablePages reports the table's heap size in pages, the unit a Gather
	// worker claims morsels in.
	TablePages(table string) (int64, error)
	// ScanRecords streams the raw records of heap pages [lo, hi) of a table:
	// the whole table for a serial scan, one morsel for a Gather worker.
	ScanRecords(table string, lo, hi int64) (RecordScan, error)
	// FetchRIDs decodes the tuples at the given RIDs of a base table.
	FetchRIDs(table string, rids []storage.RID) ([]types.Tuple, error)
	// IndexSearch probes a B-tree index, returning the RIDs of the keys in
	// [lo, hi] and the number of index pages visited; nil lo/hi leave the
	// bound open.
	IndexSearch(index string, lo, hi []byte) ([]storage.RID, int, error)
	// MetricSearch probes a metric index (M-Tree, MDI or q-gram), returning
	// the RIDs of the rows within edit distance threshold of phoneme and
	// the number of index pages visited.
	MetricSearch(index string, phoneme string, threshold int) ([]storage.RID, int, error)
	// CustomOperator resolves a predicate registered through the engine's
	// operator-addition facility (nil when unknown).
	CustomOperator(name string) func(a, b types.Value) (bool, error)
	// G2P returns the engine's G2P converter: the engine-lifetime cache over
	// its converter registry. Stored phonemes never reach it; a value stored
	// without one converts through it, and the unitext() and phoneme()
	// functions convert through its registry as INSERT materializes.
	G2P() *phonetic.SharedCache
	// WordNet returns the pinned taxonomy Ω probes, or nil when none is
	// loaded.
	WordNet() *wordnet.Net
}

// RecordScan streams the raw encoded records of a heap page range,
// page-at-a-time: one buffer-pool pin per page instead of one per row.
type RecordScan interface {
	// NextPage hands fn the scan's next heap page, a view of its slots
	// (storage.Page), and advances. more=false reports exhaustion (fn was
	// not called). The page and the records read off it alias storage owned
	// by the scan — valid only during fn; fn loops over the page's records
	// itself and copies what it keeps (types.DecodeTuple already copies).
	NextPage(fn func(pg storage.Page) error) (more bool, err error)
	// Close releases the scan.
	Close() error
}

// RunStats aggregates executor-side counters for EXPLAIN ANALYZE and the
// benchmark harness.
type RunStats struct {
	RowsOut        int64
	IndexPages     int64
	PsiEvaluations int64
	OmegaProbes    int64
}

// merge folds a Gather worker's counters into the parent run. RowsOut is
// summed too, but only the top-level cursor ever increments it, so worker
// contributions are zero.
func (s *RunStats) merge(o *RunStats) {
	s.RowsOut += o.RowsOut
	s.IndexPages += o.IndexPages
	s.PsiEvaluations += o.PsiEvaluations
	s.OmegaProbes += o.OmegaProbes
}
