package exec

import (
	"time"

	"github.com/mural-db/mural/internal/metrics"
	"github.com/mural-db/mural/internal/plan"
)

// Engine-wide operator counters: every Ψ (LexEQUAL) evaluation runs an
// edit-distance over phoneme strings and every Ω (SemEQUAL) evaluation probes
// a hypernym closure, so these two counters are the CPU story of the paper's
// Table 3 on the /metrics endpoint.
var (
	mPsiEvals    = metrics.Default.Counter("mural_psi_evaluations_total")
	mOmegaProbes = metrics.Default.Counter("mural_omega_probes_total")
)

// Counting rule. An evaluation is counted where it happens, in memory only
// the evaluating goroutine touches: the evaluator's RunStats (what EXPLAIN
// ANALYZE prints) and its unpublished tally. The process-wide counters above
// are a cache line every Gather worker shares, so a row loop never writes
// them; publishCounts moves the tally over with one Add per counter — after
// each fused batch, when a Gather folds its workers, and when the cursor
// closes — which keeps /metrics exact at statement end on every exit path
// (drain, early Close, error, cancellation) and at most a batch behind while
// the statement runs.

// count records n Ω closure probes when omega, else n Ψ evaluations that
// reached the edit-distance stage.
func (ev *evaluator) count(omega bool, n int64) {
	if omega {
		ev.stats.OmegaProbes += n
		ev.unpubOmega += n
	} else {
		ev.stats.PsiEvaluations += n
		ev.unpubPsi += n
	}
}

// publishCounts adds the evaluator's unpublished Ψ/Ω and G2P tallies to the
// process-wide counters. It runs on the goroutine that runs the evaluator
// or, for a Gather worker's evaluator, on the consumer's once the worker has
// exited. It is the one publication point: called per batch, per worker fold
// and per statement, never per row.
func (ev *evaluator) publishCounts() {
	if ev.unpubPsi != 0 {
		mPsiEvals.Add(ev.unpubPsi)
		ev.unpubPsi = 0
	}
	if ev.unpubOmega != 0 {
		mOmegaProbes.Add(ev.unpubOmega)
		ev.unpubOmega = 0
	}
	ev.g2p.Publish()
}

// OpStats is what one plan operator measured while running under EXPLAIN
// ANALYZE. Counters are totals across all loops (rescans), mirroring
// PostgreSQL's convention of reporting aggregate, not per-loop, figures.
type OpStats struct {
	// Rows is the number of tuples the operator emitted.
	Rows int64
	// Loops is the number of passes over the operator: 1, plus one per
	// further rescan by a nested-loops join parent.
	Loops int64
	// Elapsed is cumulative wall time inside Next(), children included
	// (subtract a child's Elapsed for self time).
	Elapsed time.Duration
}

// ExecStats collects per-operator statistics for one query execution. A nil
// *ExecStats disables collection entirely: the executor then builds the
// operator tree without instrumentation (no wrappers, no clock reads).
type ExecStats struct {
	byNode map[*plan.Node]*OpStats
	// timed selects the full collector (row counts plus wall time per
	// NextBatch, two clock reads per batch). Counts-only collectors skip the
	// clock: cheap enough to run on every governed query, they feed the
	// planner's selectivity feedback, where only cardinalities matter.
	timed bool
}

// NewExecStats returns an empty timed collector (EXPLAIN ANALYZE, traces).
func NewExecStats() *ExecStats {
	return &ExecStats{byNode: make(map[*plan.Node]*OpStats), timed: true}
}

// NewCountStats returns a counts-only collector: Rows and Loops are
// measured, Elapsed stays zero.
func NewCountStats() *ExecStats {
	return &ExecStats{byNode: make(map[*plan.Node]*OpStats)}
}

// Timed reports whether this collector measures wall time.
func (es *ExecStats) Timed() bool { return es != nil && es.timed }

// Stats returns (creating on first use) the bucket for a plan node.
func (es *ExecStats) Stats(n *plan.Node) *OpStats {
	st, ok := es.byNode[n]
	if !ok {
		st = &OpStats{Loops: 1}
		es.byNode[n] = st
	}
	return st
}

// Actual reports a node's measured figures in the plan package's neutral
// form, shaped for plan.FormatAnalyze.
func (es *ExecStats) Actual(n *plan.Node) (plan.Actual, bool) {
	if es == nil {
		return plan.Actual{}, false
	}
	st, ok := es.byNode[n]
	if !ok {
		return plan.Actual{}, false
	}
	return plan.Actual{
		Rows:    st.Rows,
		Loops:   st.Loops,
		Elapsed: st.Elapsed,
	}, true
}

// Merge folds another collector's buckets into this one: the Gather
// operator merges each worker's private collector into the parent's when
// the stream ends. Summing Loops makes a node executed once by each of N
// workers report loops=N, PostgreSQL's convention for parallel plans. A
// bucket absent here is copied rather than created through Stats, which
// would seed a phantom extra loop.
func (es *ExecStats) Merge(o *ExecStats) {
	if es == nil || o == nil {
		return
	}
	for n, st := range o.byNode {
		dst, ok := es.byNode[n]
		if !ok {
			cp := *st
			es.byNode[n] = &cp
			continue
		}
		dst.Rows += st.Rows
		dst.Loops += st.Loops
		dst.Elapsed += st.Elapsed
	}
}

// batchStatsIter counts the rows one operator emits (and under a timed
// collector, times its NextBatch calls), at one wrapper call per ~BatchRows
// rows.
type batchStatsIter struct {
	child BatchIter
	st    *OpStats
	timed bool
}

func (s *batchStatsIter) NextBatch() (*Batch, error) {
	var start time.Time
	if s.timed {
		start = time.Now()
	}
	b, err := s.child.NextBatch()
	if s.timed {
		s.st.Elapsed += time.Since(start)
	}
	if b != nil {
		s.st.Rows += int64(len(b.Rows))
	}
	return b, err
}

func (s *batchStatsIter) Close() error { return s.child.Close() }

// rescan counts one more pass (loop) over the wrapped Materialize and starts
// it.
func (s *batchStatsIter) rescan() {
	s.st.Loops++
	s.child.(rescannable).rescan()
}
