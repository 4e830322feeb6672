package mural

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// drainRows pulls up to limit rows (all of them when limit < 0) and returns
// the error that stopped the stream, if any.
func drainRows(r *Rows, limit int) error {
	for n := 0; limit < 0 || n < limit; n++ {
		if _, ok, err := r.Next(); err != nil || !ok {
			return err
		}
	}
	return nil
}

// TestStatementObservedExactlyOnce: whatever its entry and exit, a statement
// that reaches the engine is counted, logged, traced and recorded once, gives
// its admission slot back, and teaches the planner only from a full
// error-free drain.
func TestStatementObservedExactlyOnce(t *testing.T) {
	const sel = `SELECT id FROM tt WHERE name LEXEQUAL 'akash' THRESHOLD 1`
	cases := []struct {
		name    string
		run     func(ctx context.Context, cancel context.CancelFunc, e *Engine) error
		wantErr error // nil: success; errAny: any failure
		folds   bool
	}{
		{"Exec SELECT", func(ctx context.Context, _ context.CancelFunc, e *Engine) error {
			_, err := e.ExecContext(ctx, sel)
			return err
		}, nil, true},
		{"Query drained", func(ctx context.Context, _ context.CancelFunc, e *Engine) error {
			rows, err := e.QueryContext(ctx, sel)
			if err != nil {
				return err
			}
			return errors.Join(drainRows(rows, -1), rows.Close())
		}, nil, true},
		{"Query closed after one row", func(ctx context.Context, _ context.CancelFunc, e *Engine) error {
			rows, err := e.QueryContext(ctx, sel)
			if err != nil {
				return err
			}
			return errors.Join(drainRows(rows, 1), rows.Close())
		}, nil, false},
		{"Query parse error", func(ctx context.Context, _ context.CancelFunc, e *Engine) error {
			_, err := e.QueryContext(ctx, `SELEC nonsense`)
			return err
		}, errAny, false},
		{"Query plan error", func(ctx context.Context, _ context.CancelFunc, e *Engine) error {
			_, err := e.QueryContext(ctx, `SELECT nope FROM tt`)
			return err
		}, errAny, false},
		{"EXPLAIN ANALYZE", func(ctx context.Context, _ context.CancelFunc, e *Engine) error {
			_, err := e.ExecContext(ctx, `EXPLAIN ANALYZE `+sel)
			return err
		}, nil, true},
		{"INSERT", func(ctx context.Context, _ context.CancelFunc, e *Engine) error {
			_, err := e.ExecContext(ctx, `INSERT INTO tt VALUES (9999, unitext('x', english))`)
			return err
		}, nil, false},
		{"rejected by admission", func(ctx context.Context, _ context.CancelFunc, e *Engine) error {
			e.inflight.Add(1) // the one slot is taken
			defer e.inflight.Add(-1)
			_, err := e.ExecContext(ctx, sel)
			return err
		}, ErrAdmissionRejected, false},
		{"canceled mid-drain", func(ctx context.Context, cancel context.CancelFunc, e *Engine) error {
			rows, err := e.QueryContext(ctx, sel)
			if err != nil {
				return err
			}
			if err := drainRows(rows, 1); err != nil {
				return err
			}
			cancel()
			return errors.Join(drainRows(rows, -1), rows.Close())
		}, ErrCanceled, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var slow, sink bytes.Buffer
			e, err := Open(Config{
				Workers: 1, MaxConcurrentQueries: 1,
				SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &slow,
				TraceSink: &sink, TraceSampleRate: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			// Half of 4000 rows match: the canceled drain crosses several
			// cancellation checkpoints before the result could run out.
			loadUniTable(t, e, "tt", 4000)
			slow.Reset()
			sink.Reset()
			calls := func() (n int64) {
				for _, r := range e.Statements() {
					n += r.Calls
				}
				return n
			}
			queries, failed, recorded := mQueries.Value(), mQueryErrors.Value(), calls()

			// A context that can fire makes the statement governed, which is
			// what lets it fold feedback.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			err = tc.run(ctx, cancel, e)
			switch {
			case tc.wantErr == nil && err != nil:
				t.Fatalf("failed: %v", err)
			case tc.wantErr == errAny && err == nil:
				t.Fatal("succeeded, want an error")
			case tc.wantErr != nil && tc.wantErr != errAny && !errors.Is(err, tc.wantErr):
				t.Fatalf("error = %v, want %v", err, tc.wantErr)
			}

			if got := mQueries.Value() - queries; got != 1 {
				t.Errorf("mural_engine_queries_total moved by %d, want 1", got)
			}
			wantFailed := int64(0)
			if tc.wantErr != nil {
				wantFailed = 1
			}
			if got := mQueryErrors.Value() - failed; got != wantFailed {
				t.Errorf("mural_engine_query_errors_total moved by %d, want %d", got, wantFailed)
			}
			if got := calls() - recorded; got != 1 {
				t.Errorf("Statements() calls moved by %d, want 1", got)
			}
			if g, n := gQueriesInflight.Value(), e.inflight.Load(); g != 0 || n != 0 {
				t.Errorf("mural_queries_inflight = %d (engine %d), want 0", g, n)
			}
			if got := strings.Count(slow.String(), "\n"); got != 1 {
				t.Errorf("slow-query log lines = %d, want 1:\n%s", got, slow.String())
			}
			roots := 0
			for _, s := range decodeSpans(t, sink.String()) {
				if s["kind"] == "query" {
					roots++
				}
			}
			if roots != 1 {
				t.Errorf("root spans = %d, want 1:\n%s", roots, sink.String())
			}
			if got := e.fb.Len() > 0; got != tc.folds {
				t.Errorf("feedback folded = %v, want %v", got, tc.folds)
			}
		})
	}
}

// errAny stands for "fails, with whatever error" in the table above.
var errAny = errors.New("any error")
