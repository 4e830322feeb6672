package plan

import (
	"github.com/mural-db/mural/internal/catalog"
	"github.com/mural-db/mural/internal/types"
)

// Cost model constants, in PostgreSQL-style abstract units where one
// sequential page fetch costs 1.0. The Ψ term prices the diagonal-transition
// edit distance at O(k·l̄) character operations (§3.3: "all edit-distance
// computations were implemented using the diagonal transition algorithm"),
// and the Ω term prices closure materialization plus per-pair hash probes
// (§4.3). Together with the page terms these realize the Table 3 formulas:
//
//	Ψ scan,  no index:  P      I/O + n·k·l̄        CPU
//	Ψ scan,  M-Tree:    f(k)·(P_AI + P) I/O + f(k)·n·k·l̄ CPU
//	Ψ join,  no index:  P_l + P_r I/O + n_l·n_r·k·l̄ CPU
//	Ψ join,  M-Tree:    P_l + n_l·f(k)·P_AI I/O + n_l·f(k)·n_r·k·l̄ CPU
//	Ω scan,  no index:  P + P_T I/O + |TC| + n    CPU
//	Ω join:             P_l + P_r I/O + Σ|TC| + n_l·n_r CPU
//
// where f(k) is the linear threshold fraction of the database scanned by an
// approximate index (§3.3: "the fraction of the database scanned was
// approximated by a linear function on the error threshold").
const (
	SeqPageCost    = 1.0
	RandomPageCost = 4.0
	CPUTupleCost   = 0.01
	CPUOperCost    = 0.0025
	// PsiCharCost is the cost of one cell of the banded edit-distance DP.
	PsiCharCost = 0.0005
	// OmegaNodeCost is the cost of visiting one taxonomy node during
	// closure materialization.
	OmegaNodeCost = 0.002
	// OmegaProbeCost is one hash-table membership probe.
	OmegaProbeCost = 0.005
	// HashBuildCost / HashProbeCost price hash join sides per tuple.
	HashBuildCost = 0.015
	HashProbeCost = 0.01
	// SortRowCost approximates comparison cost per row·log(row).
	SortRowCost = 0.012
	// MaterializeRowCost is the per-row cost of re-reading a materialized
	// inner relation.
	MaterializeRowCost = 0.0025
	// ExchangeRowCost is the per-row cost of moving a tuple from a Gather
	// worker to the merging consumer. With batch exchange a worker ships
	// whole pooled vectors (~1024 rows per channel send), so the per-row
	// share of the transfer is an order of magnitude below the old
	// tuple-batched estimate — cheap scans now clear the parallel gate
	// instead of being priced out by exchange overhead.
	ExchangeRowCost = 0.0005
)

// MTreeFraction is f(k): the linear fraction of an approximate index (and
// of the underlying data) scanned at threshold k. The intercept reflects
// the poor pruning the paper observed on long strings with the coarse edit
// distance metric (§5.3); even k=0 touches a noticeable fraction.
func MTreeFraction(k int) float64 {
	f := 0.18 + 0.22*float64(k)
	if f > 1 {
		f = 1
	}
	return f
}

// MDIFraction is the candidate fraction selected by a pivot-distance range
// [d−k, d+k]: roughly (2k+1) over the spread of pivot distances, which for
// name-length strings is about the average phoneme length.
func MDIFraction(k int, avgLen float64) float64 {
	if avgLen < 4 {
		avgLen = 4
	}
	f := float64(2*k+1) / avgLen
	if f > 1 {
		f = 1
	}
	return f
}

// QGramFraction estimates the fraction of rows surviving the q-gram count
// filter at threshold k: each edit destroys at most q grams out of the
// ~l̄+q−1 padded grams, so the filter's slack grows as k·q / (l̄+q−1).
func QGramFraction(k int, q int, avgLen float64) float64 {
	if avgLen < 2 {
		avgLen = 2
	}
	f := float64(k*q) / (avgLen + float64(q) - 1)
	if f > 1 {
		f = 1
	}
	if f < 0.02 {
		f = 0.02
	}
	return f
}

// Stats bundles what the cost model knows about one base relation.
type Stats struct {
	Rows  float64
	Pages float64
	Cols  map[string]*catalog.ColumnStats
}

// The size assumed for a never-analyzed table (PostgreSQL does the same with
// its default page/row estimates).
const defaultRows, defaultPages = 1000, 10

func defaultStats() Stats {
	return Stats{Rows: defaultRows, Pages: defaultPages, Cols: map[string]*catalog.ColumnStats{}}
}

// statsFor reads the catalog's ANALYZE results.
func statsFor(cat *catalog.Catalog, table string) Stats {
	st := cat.Stats(table)
	if st == nil {
		return defaultStats()
	}
	s := Stats{Rows: float64(st.Rows), Pages: float64(st.Pages), Cols: st.Columns}
	if s.Rows < 1 {
		s.Rows = 1
	}
	if s.Pages < 1 {
		s.Pages = 1
	}
	if s.Cols == nil {
		s.Cols = map[string]*catalog.ColumnStats{}
	}
	return s
}

// avgKeyLen returns the average phoneme/key length of a column, with the
// Table 2 l̄ fallback of 8.
func (s Stats) avgKeyLen(col string) float64 {
	if cs, ok := s.Cols[col]; ok && cs.Hist != nil && cs.Hist.AvgKeyLen > 0 {
		return cs.Hist.AvgKeyLen
	}
	return 8
}

// SemEstimator supplies Ω selectivity inputs from the loaded taxonomy
// (§3.4.2: exact |TC(x)|/n when closures are computable, h̄/n otherwise).
type SemEstimator interface {
	// ClosureFrac returns |TC(word)| / n for a concept word, or a negative
	// value when the word is unknown.
	ClosureFrac(word string, lang types.LangID) float64
	// AvgClosureFrac returns the mean closure fraction (the h̄-based
	// fallback).
	AvgClosureFrac() float64
	// TaxonomySize returns the synset count n.
	TaxonomySize() int
}
