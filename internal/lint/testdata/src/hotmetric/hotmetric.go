// Golden package for the hotmetric analyzer. Counter mirrors
// metrics.Counter; mRows, total and legacy are process-wide: one cache line
// each, shared by every goroutine.
package hotmetric

import "sync/atomic"

type Row []int

type Counter struct{ v atomic.Int64 }

func (c *Counter) Inc()        { c.v.Add(1) }
func (c *Counter) Add(n int64) { c.v.Add(n) }

var (
	mRows  Counter
	total  atomic.Int64
	legacy int64
)

type source struct {
	rows []Row
	i    int
}

func (s *source) Next() (Row, bool, error) {
	if s.i >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.i]
	s.i++
	return r, true, nil
}

// ---- direct positive: an operator's Next runs once per row ----

type countingFilter struct {
	in *source
}

func (f *countingFilter) Next() (Row, bool, error) {
	r, ok, err := f.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	mRows.Inc() // want `hotmetric.mRows.Inc runs once per row`
	return r, true, nil
}

// ---- interprocedural positive: the write lives in a helper that only the
// call graph connects to an operator's Next ----

type evaluator struct {
	evals int64
}

func (ev *evaluator) eval(r Row) bool {
	total.Add(1) // want `hotmetric.total.Add runs once per row`
	return len(r) > 0
}

type evalFilter struct {
	in *source
	ev *evaluator
}

func (f *evalFilter) Next() (Row, bool, error) {
	for {
		r, ok, err := f.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if f.ev.eval(r) {
			return r, true, nil
		}
	}
}

// ---- fused kernel positive: matchRec is called once per record ----

type kernel struct{}

func (kernel) matchRec(rec []byte) (bool, error) {
	atomic.AddInt64(&legacy, 1) // want `hotmetric: atomic.AddInt64\(&legacy\) runs once per row`
	return len(rec) > 0, nil
}

// ---- batch operator: loops and per-record callbacks run per row, the code
// around them once per batch ----

type pages struct{ recs [][]byte }

func (p *pages) nextPage(fn func(rec []byte) error) (bool, error) {
	for _, rec := range p.recs {
		if err := fn(rec); err != nil {
			return true, err
		}
	}
	return false, nil
}

type Batch struct{ Rows []Row }

type leakyBatchScan struct {
	src *pages
}

func (s *leakyBatchScan) NextBatch() (*Batch, error) {
	b := &Batch{}
	// Hoisted out of the loop, still called once per record.
	perRec := func(rec []byte) error {
		mRows.Inc() // want `hotmetric.mRows.Inc runs once per row`
		b.Rows = append(b.Rows, Row{len(rec)})
		return nil
	}
	for len(b.Rows) < 1024 {
		total.Add(1) // want `hotmetric.total.Add runs once per row`
		more, err := s.src.nextPage(perRec)
		if err != nil || !more {
			return b, err
		}
	}
	return b, nil
}

// ---- negatives ----

// batchedScan counts in memory it owns and publishes once per batch.
type batchedScan struct {
	src *pages
	ev  *evaluator
}

func (s *batchedScan) NextBatch() (*Batch, error) {
	b := &Batch{}
	var scanned int64
	perRec := func(rec []byte) error {
		scanned++
		s.ev.evals++
		b.Rows = append(b.Rows, Row{len(rec)})
		return nil
	}
	for len(b.Rows) < 1024 {
		more, err := s.src.nextPage(perRec)
		if err != nil || !more {
			break
		}
	}
	mRows.Add(scanned)
	return b, nil
}

// A struct-field atomic belongs to whoever owns the struct; sharing it is
// that owner's decision, not a process-wide fact.
type pool struct{ outstanding atomic.Int64 }

type pooledScan struct {
	in *source
	p  *pool
}

func (s *pooledScan) Next() (Row, bool, error) {
	s.p.outstanding.Add(1)
	return s.in.Next()
}

// The end-of-stream fold runs once per statement; the site says so.
type folding struct {
	in   *source
	seen int64
}

func (f *folding) Next() (Row, bool, error) {
	r, ok, err := f.in.Next()
	if err != nil {
		return nil, false, err
	}
	if !ok {
		mRows.Add(f.seen) //lint:hot-metric end-of-stream fold: once per statement
		return nil, false, nil
	}
	f.seen++
	return r, true, nil
}

// publish is the audited publication point: its declaration carries the
// exception, so callers reachable from Next are clean too.
//
//lint:hot-metric one Add per batch or per statement; never called per row
func (ev *evaluator) publish() {
	total.Add(ev.evals)
	ev.evals = 0
}

type gather struct {
	in *source
	ev *evaluator
}

func (g *gather) Next() (Row, bool, error) {
	r, ok, err := g.in.Next()
	if !ok {
		g.ev.publish()
	}
	return r, ok, err
}

// Reading is free.
type sampled struct{ in *source }

func (s *sampled) Next() (Row, bool, error) {
	if total.Load() < 0 || atomic.LoadInt64(&legacy) < 0 {
		return nil, false, nil
	}
	return s.in.Next()
}

// loadTable is not reachable from any operator: it may count as it likes.
func loadTable(s *source) {
	for {
		_, ok, err := s.Next()
		if err != nil || !ok {
			return
		}
		mRows.Inc()
	}
}
