package mural

import (
	"context"
	"time"

	"github.com/mural-db/mural/internal/exec"
	"github.com/mural-db/mural/internal/obs"
	"github.com/mural-db/mural/internal/plan"
)

// statement is the one lifecycle every statement crosses, whatever brought
// it in (Exec, Query, EXPLAIN ANALYZE): begin admits it and
// arms governance before anything else is paid for, run starts its plan, and
// finish — exactly once, on every exit — accounts for it and gives back what
// begin took. It lives by value inside its Rows, so a statement costs no
// allocation of its own.
type statement struct {
	// sess is nil before begin and again after finish; set is the session's
	// settings, loaded once at begin.
	sess *Session
	set  *settings
	ctx  context.Context
	// text is the statement's SQL text.
	text  string
	start time.Time
	base  cacheTotals
	// stop releases the deadline timer; it is set once the statement is
	// admitted, so it also marks a held admission slot.
	stop func()
	// res is nil when nothing can stop the statement: the executor then
	// runs without a single governance check.
	res *exec.Resources
	// traceID is nonzero when the statement's spans export.
	traceID uint64
	// node, es, cursor and planDur (begin to run: admission, parse, plan)
	// are set by run; es is nil when nobody wants the counts.
	node    *plan.Node
	es      *exec.ExecStats
	cursor  *exec.Cursor
	planDur time.Duration
}

// begin starts the clock, decides whether the statement is traced (a client
// tag always is, the sampler picks among the rest) and claims an admission
// slot and the governance state the session's settings ask for. A rejection
// finishes it here.
func (st *statement) begin(ctx context.Context, s *Session, text string) error {
	e := s.e
	set := s.set.Load()
	*st = statement{sess: s, set: set, ctx: ctx, text: text, start: time.Now(), base: e.cacheBase()}
	if e.traces != nil {
		id, tagged := obs.TraceIDFrom(ctx)
		if e.traces.Sampled(tagged) {
			if id == 0 {
				id = e.newTraceID()
			}
			st.traceID = id
		}
	}
	if err := e.admit(); err != nil {
		st.finish(0, false, err)
		return err
	}
	st.res, st.stop = set.queryResources(ctx)
	return nil
}

// run starts node under the statement's governance and leaves the cursor in
// st. analyze asks for what EXPLAIN ANALYZE prints: per-operator times, and
// a memory accountant even when no limit is configured (res is nil only when
// ctx can never fire, so the accountant's context need not derive from it).
func (st *statement) run(node *plan.Node, analyze bool) error {
	if analyze && st.res == nil {
		st.res = exec.NewResources(context.Background(), 0)
	}
	st.node, st.planDur = node, time.Since(st.start)
	st.es = st.sess.e.armCollector(analyze || st.traceID != 0, st.res, node)
	var err error
	st.cursor, err = exec.Run(st.sess.e, node, st.es, st.res)
	return err
}

// finish ends the statement: rows is what its consumer saw, drained whether
// that was the whole result, err what stopped it. Selectivity feedback folds
// only from a full error-free drain — a partial one undercounts output rows.
// Calls after the first do nothing.
func (st *statement) finish(rows int64, drained bool, err error) {
	if st.sess == nil {
		return
	}
	e := st.sess.e
	st.sess = nil
	elapsed := time.Since(st.start)
	noteGovernedErr(err)
	if drained && err == nil {
		e.foldFeedback(st.node, st.es, st.res)
	}
	if st.traceID != 0 {
		e.exportTrace(st, elapsed, rows)
	}
	e.observe(st, rows, elapsed, err)
	if st.stop != nil {
		st.stop()
		e.release()
	}
}
