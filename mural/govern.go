package mural

import (
	"context"
	"errors"
	"fmt"

	"github.com/mural-db/mural/internal/exec"
	"github.com/mural-db/mural/internal/metrics"
)

// Resource governance: per-statement deadlines, a memory ceiling and
// admission control. The knobs layer in the usual way — a session's SET
// statement_timeout / max_query_mem overrides the Config default, and a zero
// at either level disables that limit. Governance is pay-as-you-go: a
// statement with no context, no deadline and no memory cap runs exactly the
// ungoverned code path it always did.

// Typed statement failures (check with errors.Is). The first three re-export
// the executor's sentinels so callers need not import internal packages.
var (
	// ErrCanceled reports a statement stopped by context cancellation (or a
	// wire-level cancel message).
	ErrCanceled = exec.ErrCanceled
	// ErrQueryTimeout reports a statement that exceeded its deadline
	// (Config.QueryTimeout or SET statement_timeout).
	ErrQueryTimeout = exec.ErrQueryTimeout
	// ErrMemoryLimit reports a statement that exceeded its memory budget
	// (Config.MaxQueryMem or SET max_query_mem).
	ErrMemoryLimit = exec.ErrMemoryLimit
	// ErrAdmissionRejected reports a statement refused because
	// Config.MaxConcurrentQueries statements were already running.
	ErrAdmissionRejected = errors.New("mural: too many concurrent queries")
)

var (
	mQueriesCanceled   = metrics.Default.Counter("mural_queries_canceled_total")
	mQueryTimeouts     = metrics.Default.Counter("mural_query_timeouts_total")
	mAdmissionRejected = metrics.Default.Counter("mural_admission_rejected_total")
	gQueriesInflight   = metrics.Default.Gauge("mural_queries_inflight")
)

// admit claims an execution slot, or fails with ErrAdmissionRejected when
// Config.MaxConcurrentQueries slots are taken. Every admitted statement
// releases its slot exactly once (statement.finish).
func (e *Engine) admit() error {
	n := e.inflight.Add(1)
	if max := int64(e.cfg.MaxConcurrentQueries); max > 0 && n > max {
		e.inflight.Add(-1)
		mAdmissionRejected.Inc()
		return fmt.Errorf("%w (%d running, limit %d)", ErrAdmissionRejected, n-1, max)
	}
	gQueriesInflight.Set(n)
	return nil
}

// release gives back the slot admit claimed.
func (e *Engine) release() {
	gQueriesInflight.Set(e.inflight.Add(-1))
}

// queryResources assembles the governance state for one statement under
// these limits. It returns a nil Resources — the zero-overhead ungoverned
// path — when the caller's context can never fire and no limit is set. The
// returned stop must be called when the statement finishes (it releases the
// deadline timer); it is non-nil even for ungoverned statements.
func (s *settings) queryResources(ctx context.Context) (*exec.Resources, func()) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() == nil && s.timeout <= 0 && s.maxMem <= 0 {
		return nil, func() {}
	}
	stop := func() {}
	if s.timeout > 0 {
		ctx, stop = context.WithTimeout(ctx, s.timeout)
	}
	return exec.NewResources(ctx, int64(s.maxMem)), stop
}

// noteGovernedErr counts governed terminations in the engine metrics. It
// runs only for the error that ends a statement: at most once per statement.
func noteGovernedErr(err error) {
	switch {
	case err == nil:
	case errors.Is(err, exec.ErrCanceled):
		mQueriesCanceled.Inc()
	case errors.Is(err, exec.ErrQueryTimeout):
		mQueryTimeouts.Inc()
	}
}
