package mural

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/mural-db/mural/internal/exec"
	"github.com/mural-db/mural/internal/metrics"
	"github.com/mural-db/mural/internal/obs"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
)

// Engine-level query counters and the latency histogram backing the
// /metrics endpoint.
var (
	mQueries     = metrics.Default.Counter("mural_engine_queries_total")
	mQueryErrors = metrics.Default.Counter("mural_engine_query_errors_total")
	mSlowQueries = metrics.Default.Counter("mural_engine_slow_queries_total")
	mQueryLatNs  = metrics.Default.Histogram("mural_engine_query_latency_ns", metrics.DurationBuckets)
)

// Default bounds for the observability stores (Config zero values).
const (
	defaultStmtStatsEntries = 256
	defaultFeedbackEntries  = 1024
)

// publishRecoveryStats exposes what crash recovery did at Open as gauges, so
// a scrape right after a restart shows whether (and how much) replay ran.
func publishRecoveryStats(rs RecoveryStats) {
	reg := metrics.Default
	reg.Gauge("mural_recovery_batches_replayed").Set(int64(rs.BatchesReplayed))
	reg.Gauge("mural_recovery_pages_applied").Set(int64(rs.PagesApplied))
	reg.Gauge("mural_recovery_orphans_removed").Set(int64(rs.OrphansRemoved))
	torn := int64(0)
	if rs.TornTail {
		torn = 1
	}
	reg.Gauge("mural_recovery_torn_tail").Set(torn)
}

// slowQueryRecord is one line of the structured slow-query log.
type slowQueryRecord struct {
	TS          string  `json:"ts"`
	Query       string  `json:"query"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	Rows        int64   `json:"rows"`
	PeakMem     int64   `json:"peak_mem_bytes"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	TraceID     string  `json:"trace_id,omitempty"`
	Err         string  `json:"err,omitempty"`
}

// observe records one finished statement: metrics, the statement statistics
// store and the slow-query log.
func (e *Engine) observe(st *statement, rows int64, elapsed time.Duration, err error) {
	mQueries.Inc()
	mQueryLatNs.Observe(int64(elapsed))
	if err != nil {
		mQueryErrors.Inc()
	}
	// The statement's governed memory high-water mark (0 when ungoverned).
	peakMem := st.res.PeakBytes()
	var hits, misses int64
	if e.stmts != nil {
		now := e.cacheBase()
		hits, misses = now.hits-st.base.hits, now.misses-st.base.misses
		e.stmts.Record(obs.Fingerprint(st.text), obs.Observation{
			DurNs:       int64(elapsed),
			Rows:        rows,
			Err:         err != nil,
			PeakMem:     peakMem,
			CacheHits:   hits,
			CacheMisses: misses,
		})
	}
	if thr := e.cfg.SlowQueryThreshold; thr > 0 && elapsed >= thr && e.cfg.SlowQueryLog != nil {
		mSlowQueries.Inc()
		rec := slowQueryRecord{
			TS:          time.Now().UTC().Format(time.RFC3339Nano),
			Query:       st.text,
			ElapsedMS:   float64(elapsed) / float64(time.Millisecond),
			Rows:        rows,
			PeakMem:     peakMem,
			CacheHits:   hits,
			CacheMisses: misses,
		}
		if id, ok := obs.TraceIDFrom(st.ctx); ok {
			rec.TraceID = fmt.Sprintf("%016x", id)
		}
		if err != nil {
			rec.Err = err.Error()
		}
		if line, jerr := json.Marshal(rec); jerr == nil {
			e.slowMu.Lock()
			_, _ = e.cfg.SlowQueryLog.Write(append(line, '\n'))
			e.slowMu.Unlock()
		}
	}
}

// armCollector decides the per-statement collector: a timed one when the
// per-operator times will be read (the statement's spans export, or it is an
// EXPLAIN ANALYZE), a counts-only one when a governed run should feed the
// selectivity sketch, nil otherwise — which keeps the ungoverned nil-stats
// execution path at zero overhead.
func (e *Engine) armCollector(timed bool, res *exec.Resources, node *plan.Node) *exec.ExecStats {
	if timed {
		return exec.NewExecStats()
	}
	if res != nil && e.fb != nil && e.wantFeedback(node) {
		return exec.NewCountStats()
	}
	return nil
}

// fbRefreshEvery paces the re-measurement of established feedback cells:
// once every cell a plan touches is established, only every N-th governed
// execution carries the counting iterators, so the steady state runs the
// plain path while drift is still caught within N executions.
const fbRefreshEvery = 16

// wantFeedback reports whether this governed execution should pay for a
// counts collector: always while any feedback-annotated operator in the plan
// has an unestablished cell (the observations that teach the planner), and
// on the periodic refresh tick afterwards.
func (e *Engine) wantFeedback(node *plan.Node) bool {
	sites, unestablished := false, false
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n == nil || unestablished {
			return
		}
		if n.FbKind != "" {
			sites = true
			if _, ok := e.fb.Observed(n.FbKind, n.FbTable, n.FbBand); !ok {
				unestablished = true
				return
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(node)
	switch {
	case !sites:
		return false
	case unestablished:
		return true
	default:
		return e.fbTick.Add(1)%fbRefreshEvery == 0
	}
}

// newTraceID synthesizes a nonzero trace ID for a sampled statement that
// arrived untagged: a process-local sequence in the high bits keeps IDs
// unique within the engine, a wall-clock suffix disambiguates across runs.
func (e *Engine) newTraceID() uint64 {
	id := e.traceSeq.Add(1)<<24 | uint64(time.Now().UnixNano())&0xffffff
	if id == 0 {
		id = 1
	}
	return id
}

// foldFeedback folds the collector's measured per-operator selectivities
// into the feedback sketch. Callers gate on full, error-free drains; this
// gates on governance (res != nil) so only admitted statement executions —
// the ones the paper's feedback loop is about — teach the planner.
func (e *Engine) foldFeedback(node *plan.Node, es *exec.ExecStats, res *exec.Resources) {
	if es == nil || res == nil || e.fb == nil {
		return
	}
	for _, o := range es.FeedbackObservations(node) {
		e.fb.Observe(o.Kind, o.Table, o.Band, o.Sel)
	}
}

// exportTrace writes one statement's span tree: a root query span and, for a
// statement that ran a plan, a parse+plan span and one span per executed
// operator.
func (e *Engine) exportTrace(st *statement, elapsed time.Duration, rows int64) {
	startNs := st.start.UnixNano()
	spans := make([]exec.Span, 0, 8)
	spans = append(spans, exec.Span{
		TraceID: st.traceID, SpanID: 1, Kind: "query", Name: st.text,
		StartNs: startNs, DurNs: int64(elapsed), Rows: rows,
	})
	if st.node != nil {
		spans = append(spans, exec.Span{
			TraceID: st.traceID, SpanID: 2, ParentID: 1, Kind: "plan", Name: "parse+plan",
			StartNs: startNs, DurNs: int64(st.planDur),
		})
		spans = append(spans, st.es.BuildSpans(st.node, st.traceID, startNs+int64(st.planDur), 3, 1)...)
	}
	_ = e.traces.WriteSpans(spans)
}

// Statements snapshots the statement statistics store (nil when collection
// is disabled); the observability HTTP endpoint serves it as JSON.
func (e *Engine) Statements() []obs.StmtRow {
	if e.stmts == nil {
		return nil
	}
	return e.stmts.Snapshot()
}

// ResetStatements drops every statement aggregate.
func (e *Engine) ResetStatements() {
	if e.stmts != nil {
		e.stmts.Reset()
	}
}

// showStatements renders SHOW STATEMENTS: one row per resident fingerprint,
// most total time first. Latencies report in milliseconds for humans; the
// HTTP endpoint keeps raw nanoseconds.
func (e *Engine) showStatements() *Result {
	res := &Result{Cols: []string{
		"query", "calls", "errors", "rows", "total_ms", "mean_ms",
		"p50_ms", "p95_ms", "p99_ms", "max_ms", "peak_mem_bytes",
		"cache_hits", "cache_misses",
	}}
	if e.stmts == nil {
		return res
	}
	ms := func(ns int64) types.Value { return types.NewFloat(float64(ns) / 1e6) }
	for _, r := range e.stmts.Snapshot() {
		res.Rows = append(res.Rows, Tuple{
			types.NewText(r.Query),
			types.NewInt(r.Calls),
			types.NewInt(r.Errors),
			types.NewInt(r.Rows),
			ms(r.TotalNs),
			ms(r.MeanNs),
			ms(r.P50Ns),
			ms(r.P95Ns),
			ms(r.P99Ns),
			ms(r.MaxNs),
			types.NewInt(r.PeakMem),
			types.NewInt(r.CacheHits),
			types.NewInt(r.CacheMisses),
		})
	}
	return res
}
