package exec

import (
	"sync"
	"sync/atomic"

	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
)

// Batch-at-a-time execution. Eligible subtrees (scans, filters, projections,
// and the fused Ψ/Ω kernels in fuse.go) move rows in pooled ~BatchRows
// vectors instead of one interface call per tuple, so the per-row cost of a
// pipeline collapses to a slice append. Batch containers come from a
// sync.Pool-backed BatchPool owned by the query (workers of a Gather share
// the parent's), and every batch is either handed to the consumer or
// recycled on all paths — the membalance lint's pooled-batch rule enforces
// this, and BatchPool.InFlight lets tests assert it dynamically.
//
// Ownership contract: NextBatch transfers the batch to the caller, which
// must recycle it through evaluator.putBatch once consumed. A batch carries
// the governed-memory charge of its rows (chargeBatch/retire), so recycling
// also settles the query's memory accounting.

// BatchRows is the target vector width: large enough to amortize interface
// and channel hops over ~a thousand rows, small enough that a batch of
// typical tuples stays cache- and budget-friendly. It deliberately equals
// the governance checkpoint interval, so "one cancellation check per batch"
// is the same cadence the row engine amortizes to.
const BatchRows = 1024

// Batch is one vector of rows flowing between batch operators.
type Batch struct {
	Rows []types.Tuple
	// bytes is the governed-memory charge riding on this batch; retire
	// releases it when the batch is consumed or abandoned.
	bytes int64
}

// retire returns the batch's accounted bytes to the query's accountant.
// It hangs off Batch (not evaluator) so the release of the bytes field is
// visible to the same-type audit that watches its accumulation.
func (b *Batch) retire(ev *evaluator) {
	ev.release(b.bytes)
	b.bytes = 0
}

// BatchPool recycles batch containers for one query. Get/Put are safe for
// concurrent use (Gather workers share the query's pool); the steady state
// of a pipeline is one Get and one Put per BatchRows rows, reusing the same
// container, so execution allocates near-zero after warm-up.
type BatchPool struct {
	pool        sync.Pool
	outstanding atomic.Int64
}

// NewBatchPool builds an empty pool.
func NewBatchPool() *BatchPool {
	return &BatchPool{}
}

// Get returns an empty batch with BatchRows capacity.
func (p *BatchPool) Get() *Batch {
	p.outstanding.Add(1)
	if v := p.pool.Get(); v != nil {
		return v.(*Batch)
	}
	return &Batch{Rows: make([]types.Tuple, 0, BatchRows)}
}

// Put recycles a batch container. The caller must have settled the batch's
// memory charge first (putBatch does both). Row references are cleared so a
// pooled container never pins tuple memory.
func (p *BatchPool) Put(b *Batch) {
	if b == nil {
		return
	}
	clear(b.Rows[:cap(b.Rows)])
	b.Rows = b.Rows[:0]
	b.bytes = 0
	p.outstanding.Add(-1)
	p.pool.Put(b)
}

// InFlight reports Gets minus Puts: the number of batches currently owned
// by operators or consumers. After a query fully winds down it must be
// zero — the leak tests assert exactly that.
func (p *BatchPool) InFlight() int64 {
	if p == nil {
		return 0
	}
	return p.outstanding.Load()
}

// BatchIter is the batch-at-a-time operator face. NextBatch returns the
// next non-empty vector of rows, or nil at exhaustion; ownership of the
// returned batch transfers to the caller.
type BatchIter interface {
	NextBatch() (*Batch, error)
	Close() error
}

// getBatch draws an empty batch from the query's pool.
func (ev *evaluator) getBatch() *Batch {
	return ev.pool.Get()
}

// putBatch settles and recycles a consumed (or abandoned) batch: the
// accounted bytes are released and the container returns to the pool.
func (ev *evaluator) putBatch(b *Batch) {
	if b == nil {
		return
	}
	b.retire(ev)
	ev.pool.Put(b)
}

// chargeBatch charges a freshly filled batch's rows to the query's memory
// accountant; the charge rides on the batch until retire. Grow records the
// charge even when it fails (the caller still putBatches the batch, which
// releases it), mirroring the row engine's materializing operators.
func (ev *evaluator) chargeBatch(b *Batch) error {
	if ev.res == nil {
		return nil
	}
	n := tuplesBytes(b.Rows)
	b.bytes += n
	return ev.grow(n)
}

// wrapVec interposes batch-level instrumentation when a collector is armed;
// it is build()'s wrap() for batch operators.
func (ev *evaluator) wrapVec(n *plan.Node, it BatchIter) BatchIter {
	if ev.collector == nil {
		return it
	}
	return ev.collector.wrapBatch(n, it)
}

// batchRowIter adapts a batch pipeline to the row-at-a-time face for
// consumers that stayed Volcano (joins, sorts, the cursor itself). Consumed
// batches are recycled as soon as their last row is handed out; the row
// slices themselves stay valid — tuples own their memory.
type batchRowIter struct {
	ev   *evaluator
	src  BatchIter
	cur  *Batch
	pos  int
	done bool
}

func (a *batchRowIter) Next() (types.Tuple, bool, error) {
	for {
		if a.cur != nil && a.pos < len(a.cur.Rows) {
			t := a.cur.Rows[a.pos]
			a.pos++
			return t, true, nil
		}
		if a.cur != nil {
			a.ev.putBatch(a.cur)
			a.cur = nil
		}
		if a.done {
			return nil, false, nil
		}
		b, err := a.src.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			a.done = true
			return nil, false, nil
		}
		a.cur, a.pos = b, 0
	}
}

func (a *batchRowIter) Close() error {
	if a.cur != nil {
		a.ev.putBatch(a.cur)
		a.cur = nil
	}
	return a.src.Close()
}

// rowBatchIter adapts a row iterator to the batch face: the fallback when a
// scan's Env has no raw record access (or a striped partition forces row
// granularity). Each row is a cancellation checkpoint; the final batch may
// be short, and empty batches are never surfaced.
type rowBatchIter struct {
	ev   *evaluator
	src  TupleIter
	done bool
}

func (r *rowBatchIter) NextBatch() (*Batch, error) {
	if r.done {
		return nil, nil
	}
	b := r.ev.getBatch()
	for len(b.Rows) < BatchRows {
		if err := r.ev.tick(); err != nil {
			r.ev.putBatch(b)
			return nil, err
		}
		t, ok, err := r.src.Next()
		if err != nil {
			r.ev.putBatch(b)
			return nil, err
		}
		if !ok {
			r.done = true
			break
		}
		b.Rows = append(b.Rows, t)
	}
	if len(b.Rows) == 0 {
		r.ev.putBatch(b)
		return nil, nil
	}
	if err := r.ev.chargeBatch(b); err != nil {
		r.ev.putBatch(b)
		return nil, err
	}
	return b, nil
}

func (r *rowBatchIter) Close() error { return r.src.Close() }

// vectorFilterIter evaluates a predicate over whole batches, compacting
// survivors in place — no second buffer, no per-row operator hop. Batches
// that filter down to empty are recycled and the next one is pulled, so
// consumers never see an empty batch.
type vectorFilterIter struct {
	ev    *evaluator
	child BatchIter
	cond  plan.Expr
}

func (f *vectorFilterIter) NextBatch() (*Batch, error) {
	for {
		b, err := f.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		keep := b.Rows[:0]
		for _, t := range b.Rows {
			if err := f.ev.tick(); err != nil {
				f.ev.putBatch(b)
				return nil, err
			}
			pass, err := f.ev.evalBool(f.cond, t)
			if err != nil {
				f.ev.putBatch(b)
				return nil, err
			}
			if pass {
				keep = append(keep, t)
			}
		}
		// Clear the dropped tail so the container doesn't pin dead rows.
		clear(b.Rows[len(keep):])
		b.Rows = keep
		if len(b.Rows) > 0 {
			return b, nil
		}
		f.ev.putBatch(b)
	}
}

func (f *vectorFilterIter) Close() error { return f.child.Close() }

// vectorProjectIter computes projections over whole batches, rewriting rows
// in place.
type vectorProjectIter struct {
	ev    *evaluator
	child BatchIter
	projs []plan.Expr
}

func (p *vectorProjectIter) NextBatch() (*Batch, error) {
	b, err := p.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	for i, t := range b.Rows {
		if err := p.ev.tick(); err != nil {
			p.ev.putBatch(b)
			return nil, err
		}
		out := make(types.Tuple, len(p.projs))
		for j, e := range p.projs {
			v, err := p.ev.eval(e, t)
			if err != nil {
				p.ev.putBatch(b)
				return nil, err
			}
			out[j] = v
		}
		b.Rows[i] = out
	}
	return b, nil
}

func (p *vectorProjectIter) Close() error { return p.child.Close() }

// recordSource feeds raw encoded records page-at-a-time to batch scans:
// either one serial RecordScan or a sequence of them claimed from a shared
// morselSource (inside a Gather worker).
type recordSource interface {
	nextPage(fn func(rec []byte) error) (bool, error)
	Close() error
}

// serialRecordSource wraps a single whole-table RecordScan.
type serialRecordSource struct {
	scan RecordScan
}

func (s *serialRecordSource) nextPage(fn func(rec []byte) error) (bool, error) {
	return s.scan.NextPage(fn)
}

func (s *serialRecordSource) Close() error { return s.scan.Close() }

// morselRecordSource claims page ranges from the shared morsel cursor and
// streams each claim's pages: the batch engine's face of a parallel scan.
type morselRecordSource struct {
	env RecordScanner
	src *morselSource
	cur RecordScan
}

func (m *morselRecordSource) nextPage(fn func(rec []byte) error) (bool, error) {
	for {
		if m.cur == nil {
			lo, hi, ok := m.src.claim()
			if !ok {
				return false, nil
			}
			rs, err := m.env.ScanRecords(m.src.table, lo, hi)
			if err != nil {
				return false, err
			}
			m.cur = rs
		}
		more, err := m.cur.NextPage(fn)
		if err != nil {
			return true, err
		}
		if more {
			return true, nil
		}
		err = m.cur.Close()
		m.cur = nil
		if err != nil {
			return false, err
		}
	}
}

func (m *morselRecordSource) Close() error {
	if m.cur == nil {
		return nil
	}
	err := m.cur.Close()
	m.cur = nil
	return err
}

// recordSourceFor builds the page-at-a-time record feed for a scan node, or
// ok=false when the Env has no raw record access or the morsel source fell
// back to row striping (table too small for page-granularity partitioning).
func recordSourceFor(env Env, ev *evaluator, n *plan.Node) (recordSource, bool, error) {
	rs, ok := env.(RecordScanner)
	if !ok {
		return nil, false, nil
	}
	if n.Parallel && ev.par != nil {
		src, err := ev.par.morselsFor(env, n)
		if err != nil {
			return nil, false, err
		}
		if src.striped {
			return nil, false, nil
		}
		return &morselRecordSource{env: rs, src: src}, true, nil
	}
	np, err := env.TablePages(n.Table)
	if err != nil {
		return nil, false, err
	}
	scan, err := rs.ScanRecords(n.Table, 0, np)
	if err != nil {
		return nil, false, err
	}
	return &serialRecordSource{scan: scan}, true, nil
}

// batchScanIter fills batches straight from heap pages: decode every live
// record of a page into the output batch, one buffer-pool pin per page. A
// batch may overshoot BatchRows by up to one page's rows so a page is never
// split across a pin boundary.
type batchScanIter struct {
	ev   *evaluator
	src  recordSource
	done bool
}

func (s *batchScanIter) NextBatch() (*Batch, error) {
	if s.done {
		return nil, nil
	}
	b := s.ev.getBatch()
	perRec := func(rec []byte) error {
		if err := s.ev.tick(); err != nil {
			return err
		}
		t, _, err := types.DecodeTuple(rec)
		if err != nil {
			return err
		}
		b.Rows = append(b.Rows, t)
		return nil
	}
	for len(b.Rows) < BatchRows {
		more, err := s.src.nextPage(perRec)
		if err != nil {
			s.ev.putBatch(b)
			return nil, err
		}
		if !more {
			s.done = true
			break
		}
	}
	if len(b.Rows) == 0 {
		s.ev.putBatch(b)
		return nil, nil
	}
	if err := s.ev.chargeBatch(b); err != nil {
		s.ev.putBatch(b)
		return nil, err
	}
	return b, nil
}

func (s *batchScanIter) Close() error { return s.src.Close() }

// buildVec attempts a batch-at-a-time pipeline for the subtree rooted at n.
// ok=false (with nil error) means this subtree has no vectorized form; the
// caller falls back to the row engine. Instrumentation happens here at
// batch granularity (wrapVec / the fused iterator's own buckets), so build
// must not re-wrap what buildVec returns.
func buildVec(env Env, ev *evaluator, n *plan.Node) (BatchIter, bool, error) {
	switch n.Op {
	case plan.OpSeqScan:
		src, ok, err := recordSourceFor(env, ev, n)
		if err != nil {
			return nil, false, err
		}
		var bi BatchIter
		if ok {
			bi = &batchScanIter{ev: ev, src: src}
		} else {
			it, err := buildRowScan(env, ev, n)
			if err != nil {
				return nil, false, err
			}
			bi = &rowBatchIter{ev: ev, src: unwrapGov(it)}
		}
		return ev.wrapVec(n, bi), true, nil
	case plan.OpFilter:
		child := n.Children[0]
		if ev.fuse && child.Op == plan.OpSeqScan {
			if kern := ev.compileFused(n.Cond, child.Schema()); kern != nil {
				src, ok, err := recordSourceFor(env, ev, child)
				if err != nil {
					return nil, false, err
				}
				if ok {
					f := &fusedScanIter{ev: ev, src: src, kern: kern}
					if ev.collector != nil {
						f.scanSt = ev.collector.Stats(child)
						f.filtSt = ev.collector.Stats(n)
						f.timed = ev.collector.Timed()
					}
					return f, true, nil
				}
			}
		}
		cb, ok, err := buildVec(env, ev, child)
		if err != nil || !ok {
			return nil, ok, err
		}
		return ev.wrapVec(n, &vectorFilterIter{ev: ev, child: cb, cond: n.Cond}), true, nil
	case plan.OpProject:
		cb, ok, err := buildVec(env, ev, n.Children[0])
		if err != nil || !ok {
			return nil, ok, err
		}
		return ev.wrapVec(n, &vectorProjectIter{ev: ev, child: cb, projs: n.Projs}), true, nil
	}
	return nil, false, nil
}
