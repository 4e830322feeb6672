package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/mural-db/mural/internal/types"
)

// Query cancellation and resource governance. The paper pushes the expensive
// multilingual operators (Ψ edit-distance matching, Ω closure probes) into
// the engine, so a single bad threshold can turn one SELECT into minutes of
// CPU; this file gives every governed execution three ways to stop it:
//
//   - cooperative cancellation: the operator tree checks a context on an
//     amortized schedule (every cancelInterval rows), so cancel/deadline
//     fires are observed within a bounded amount of work per pipeline;
//   - a per-query memory ceiling: operators that materialize (hash-join
//     build sides, sorts, aggregates, Gather merge buffers, compiled Ω
//     operands) charge an accountant before holding rows;
//   - typed terminal errors, so every layer above (engine, server, wire,
//     client) can classify the failure without string matching.
//
// A nil *Resources disables all of it: ungoverned runs build the same
// operator tree and pay only a counter increment per row.

// Typed terminal errors for governed executions (check with errors.Is).
var (
	// ErrCanceled reports a query stopped by explicit cancellation.
	ErrCanceled = errors.New("exec: query canceled")
	// ErrQueryTimeout reports a query stopped by its deadline.
	ErrQueryTimeout = errors.New("exec: query timeout")
	// ErrMemoryLimit reports a query that exceeded its memory budget.
	ErrMemoryLimit = errors.New("exec: query memory limit exceeded")
)

// cancelInterval is how many row-steps pass between cancellation checks: a
// power of two so the check is one mask on the hot path. ~1024 rows keeps
// the observed overhead under the noise floor while bounding the response
// to a cancel by about a millisecond of row work.
const cancelInterval = 1024

// Resources is the per-query governance state: the cancellation context and
// the memory accountant. One Resources is shared by every evaluator of a
// query (Gather workers included), so all methods are safe for concurrent
// use, and every method tolerates a nil receiver (ungoverned execution).
type Resources struct {
	ctx context.Context
	// deadline is ctx's, which Err also reads off the clock: ctx's own timer
	// fires on a goroutine that needs a free P, and a query busy on the only
	// one (GOMAXPROCS=1) leaves it none until the scheduler preempts the
	// query.
	deadline time.Time
	maxMem   int64
	mem      atomic.Int64
	peak     atomic.Int64
}

// NewResources builds governance state for one query. A nil ctx means
// "cancellation never fires"; maxMem <= 0 disables the memory ceiling (the
// accountant still tracks peak usage for EXPLAIN ANALYZE).
func NewResources(ctx context.Context, maxMem int64) *Resources {
	if ctx == nil {
		ctx = context.Background()
	}
	deadline, _ := ctx.Deadline()
	return &Resources{ctx: ctx, deadline: deadline, maxMem: maxMem}
}

// Context returns the query's context (Background for nil Resources).
func (r *Resources) Context() context.Context {
	if r == nil {
		return context.Background()
	}
	return r.ctx
}

// Err reports the typed terminal error once the query's context is done,
// nil before that (and always nil for a nil receiver).
func (r *Resources) Err() error {
	if r == nil {
		return nil
	}
	err := r.ctx.Err()
	if err == nil && !r.deadline.IsZero() && !time.Now().Before(r.deadline) {
		err = context.DeadlineExceeded
	}
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return ErrQueryTimeout
	default:
		return ErrCanceled
	}
}

// Grow charges n bytes to the query, failing with ErrMemoryLimit when the
// ceiling is crossed. The charge stays recorded even on failure so EXPLAIN
// ANALYZE's peak reflects what the query tried to hold; the failed operator
// releases what it accounted when it closes.
func (r *Resources) Grow(n int64) error {
	if r == nil || n == 0 {
		return nil
	}
	cur := r.mem.Add(n)
	for {
		p := r.peak.Load()
		if cur <= p || r.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	if r.maxMem > 0 && cur > r.maxMem {
		return fmt.Errorf("%w (query holds %d bytes, limit %d)", ErrMemoryLimit, cur, r.maxMem)
	}
	return nil
}

// Release returns n accounted bytes.
func (r *Resources) Release(n int64) {
	if r != nil && n != 0 {
		r.mem.Add(-n)
	}
}

// MemBytes reports the bytes currently accounted to the query.
func (r *Resources) MemBytes() int64 {
	if r == nil {
		return 0
	}
	return r.mem.Load()
}

// PeakBytes reports the high-water mark of accounted bytes.
func (r *Resources) PeakBytes() int64 {
	if r == nil {
		return 0
	}
	return r.peak.Load()
}

// tick is the amortized cancellation checkpoint: every iterator row-loop
// calls it, and one call in cancelInterval consults the context. Nil-safe on
// both the evaluator and its Resources so ungoverned runs pay only the
// counter increment (and the test-only nil-evaluator paths pay nothing). It
// inlines into the row loops that call it.
func (ev *evaluator) tick() error {
	if ev == nil {
		return nil
	}
	if ev.ticks++; ev.ticks%cancelInterval != 0 {
		return nil
	}
	return ev.res.Err()
}

// grow charges bytes to the query's accountant (no-op when ungoverned).
func (ev *evaluator) grow(n int64) error {
	if ev == nil || ev.res == nil {
		return nil
	}
	return ev.res.Grow(n)
}

// release returns accounted bytes (no-op when ungoverned).
func (ev *evaluator) release(n int64) {
	if ev != nil && ev.res != nil {
		ev.res.Release(n)
	}
}

// tupleBytes estimates a materialized tuple's resident footprint: slice
// header plus per-value struct and string payloads.
func tupleBytes(t types.Tuple) int64 {
	n := int64(24)
	for _, v := range t {
		n += int64(v.MemBytes())
	}
	return n
}

// tuplesBytes sums tupleBytes over a batch.
func tuplesBytes(rows []types.Tuple) int64 {
	var n int64
	for _, t := range rows {
		n += tupleBytes(t)
	}
	return n
}
