package exec

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

// Batch-at-a-time execution. Every operator moves rows in ~BatchRows vectors
// instead of one interface call per tuple, so the per-row cost of a pipeline
// collapses to a slice append. Operators that produce new rows (scans, joins)
// draw their containers from a sync.Pool-backed BatchPool owned by the query
// (workers of a Gather share the parent's); operators that already hold their
// rows (index fetches, sorts, aggregates, Materialize) hand them on as
// unpooled batches aliasing the slice they hold, so a point read never
// touches the pool.
//
// Ownership contract: NextBatch transfers the batch to the caller, which
// either hands it on or recycles it through evaluator.putBatch on every path;
// BatchPool.InFlight lets tests assert it. The caller may rewrite
// or compact Rows in place. A pooled batch carries the governed-memory charge
// of its rows (chargeBatch/retire), so recycling also settles the query's
// memory accounting; the rows of an unpooled batch stay charged to the
// operator that holds them until its Close.

// BatchRows is the target vector width: large enough to amortize interface
// and channel hops over ~a thousand rows, small enough that a batch of
// typical tuples stays cache- and budget-friendly. It deliberately equals
// the governance checkpoint interval, so one cancellation check per batch is
// the cadence the per-row tick amortizes to.
const BatchRows = 1024

// Batch is one vector of rows flowing between operators.
type Batch struct {
	Rows []types.Tuple
	// bytes is the governed-memory charge riding on this batch; retire
	// releases it when the batch is consumed or abandoned.
	bytes int64
	// pooled marks a container drawn from the query's BatchPool.
	pooled bool
}

// retire returns the batch's accounted bytes to the query's accountant.
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
	return &Batch{Rows: make([]types.Tuple, 0, BatchRows), pooled: true}
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

// BatchIter is the operator interface. NextBatch returns the next non-empty
// vector of rows, or nil at exhaustion; ownership of the returned batch
// transfers to the caller.
type BatchIter interface {
	NextBatch() (*Batch, error)
	Close() error
}

// getBatch draws an empty batch from the query's pool.
func (ev *evaluator) getBatch() *Batch {
	return ev.pool.Get()
}

// putBatch settles and recycles a consumed (or abandoned) batch: the
// accounted bytes are released and a pooled container returns to the pool.
func (ev *evaluator) putBatch(b *Batch) {
	if b == nil {
		return
	}
	b.retire(ev)
	if b.pooled {
		ev.pool.Put(b)
	}
}

// chargeBatch charges a freshly filled batch's rows to the query's memory
// accountant; the charge rides on the batch until retire. Grow records the
// charge even when it fails (the caller still putBatches the batch, which
// releases it).
func (ev *evaluator) chargeBatch(b *Batch) error {
	if ev.res == nil {
		return nil
	}
	n := tuplesBytes(b.Rows)
	b.bytes += n
	return ev.grow(n)
}

// finishBatch is the common tail of a producing operator's NextBatch: an
// empty batch is recycled and reported as exhaustion, a filled one is charged
// and handed on.
func (ev *evaluator) finishBatch(b *Batch, err error) (*Batch, error) {
	if err == nil && len(b.Rows) > 0 {
		err = ev.chargeBatch(b)
	}
	if err != nil || len(b.Rows) == 0 {
		ev.putBatch(b)
		return nil, err
	}
	return b, nil
}

// heldRows hands out rows an operator already holds, BatchRows at a time, as
// unpooled batches aliasing the held slice — no copy into a pooled container.
// Each row is handed out once (a rescanned Materialize aside, whose one
// consumer only reads), so a consumer compacting its batch in place never
// disturbs rows still to come.
type heldRows struct {
	rows []types.Tuple
	pos  int
}

func (h *heldRows) next() *Batch {
	if h.pos >= len(h.rows) {
		return nil
	}
	end := min(h.pos+BatchRows, len(h.rows))
	b := &Batch{Rows: h.rows[h.pos:end:end]}
	h.pos = end
	return b
}

// rowsIter is a source whose rows exist before the first pull: an index
// scan's fetched result set, or the static rows of NewSliceCursor. bytes is
// what the source charged for them, held until Close.
type rowsIter struct {
	ev    *evaluator
	held  heldRows
	bytes int64
}

func (r *rowsIter) NextBatch() (*Batch, error) { return r.held.next(), nil }

func (r *rowsIter) Close() error {
	r.ev.release(r.bytes)
	r.bytes = 0
	return nil
}

// drainRows pulls child to exhaustion and closes it, handing every row to fn
// behind a cancellation checkpoint and recycling each batch: the input loop
// of the operators that consume everything before producing anything.
func (ev *evaluator) drainRows(child BatchIter, fn func(types.Tuple) error) error {
	for {
		b, err := child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return child.Close()
		}
		for _, t := range b.Rows {
			if err = ev.tick(); err == nil {
				err = fn(t)
			}
			if err != nil {
				ev.putBatch(b)
				return err
			}
		}
		ev.putBatch(b)
	}
}

// nextKept pulls child's next batch and compacts it in place to the rows keep
// accepts — no second buffer, no per-row operator hop. Batches that compact
// down to empty are recycled and the next one is pulled, so consumers never
// see an empty batch.
func (ev *evaluator) nextKept(child BatchIter, keep func(types.Tuple) (bool, error)) (*Batch, error) {
	for {
		b, err := child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		kept := b.Rows[:0]
		for _, t := range b.Rows {
			ok := false
			if err = ev.tick(); err == nil {
				ok, err = keep(t)
			}
			if err != nil {
				ev.putBatch(b)
				return nil, err
			}
			if ok {
				kept = append(kept, t)
			}
		}
		// Clear the dropped tail so the container doesn't pin dead rows.
		clear(b.Rows[len(kept):])
		b.Rows = kept
		if len(b.Rows) > 0 {
			return b, nil
		}
		ev.putBatch(b)
	}
}

// vectorFilterIter evaluates a predicate through eval.go over whole batches.
// It is the generic form of Filter: the fused kernels' fallback and their
// test reference.
type vectorFilterIter struct {
	ev    *evaluator
	child BatchIter
	cond  plan.Expr
}

func (f *vectorFilterIter) NextBatch() (*Batch, error) {
	return f.ev.nextKept(f.child, func(t types.Tuple) (bool, error) {
		return f.ev.evalBool(f.cond, t)
	})
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

// recordSource feeds raw encoded records page-at-a-time to the scans. It
// claims page ranges from a morselSource and streams each claim's pages; the
// source is shared by the workers of a Gather, or private and one claim wide
// for a serial scan. A striped source (small table under a Gather) claims the
// whole table privately and keeps only the records whose ordinal falls on
// this worker, which preserves exactly-once at row granularity.
type recordSource struct {
	env Env
	ev  *evaluator
	src *morselSource
	cur RecordScan
	// Striping: keep record n when n%mod == idx; mod 0 keeps every record.
	idx, mod, n int64
	pass        int64 // the pass over the table being read (rewind)
}

// newRecordSource builds the record feed for a scan node: this worker's share
// inside a Gather, the whole table otherwise.
func newRecordSource(env Env, ev *evaluator, n *plan.Node) (*recordSource, error) {
	rs := &recordSource{env: env, ev: ev}
	if n.Parallel && ev.par != nil {
		src, err := ev.par.morselsFor(env, n)
		if err != nil {
			return nil, err
		}
		if !src.striped {
			rs.src = src
			return rs, nil
		}
		rs.idx, rs.mod = int64(ev.par.id), int64(ev.par.workers)
	}
	np, err := env.TablePages(n.Table)
	if err != nil {
		return nil, err
	}
	rs.src = &morselSource{table: n.Table, npages: np, chunk: max(np, 1)}
	return rs, nil
}

// rewind starts the source's next pass over the table, for a consumer that
// reads it once per block of its own input: a private source reads the
// whole table again, a shared one what its workers claim in that pass.
func (s *recordSource) rewind() error {
	err := s.Close()
	s.pass++
	s.n = 0
	return err
}

// nextPage hands fn the source's next page, claiming the next page range
// when the current one is done. more=false when the source is exhausted.
// fn's loop over the page asks skip of each live record.
func (s *recordSource) nextPage(fn func(pg storage.Page) error) (bool, error) {
	for {
		if s.cur == nil {
			lo, hi, ok := s.src.claim(s.pass)
			if !ok {
				return false, nil
			}
			rs, err := s.env.ScanRecords(s.src.table, lo, hi)
			if err != nil {
				return false, err
			}
			s.cur = rs
		}
		more, err := s.cur.NextPage(fn)
		if err != nil {
			return true, err
		}
		if more {
			return true, nil
		}
		err = s.cur.Close()
		s.cur = nil
		if err != nil {
			return false, err
		}
	}
}

// skip reports whether this worker leaves the next live record of a striped
// source to another: it keeps one record in mod, by ordinal. Every page loop
// over the source calls it once per live record, and checks for
// cancellation at a record it skips too.
func (s *recordSource) skip() bool {
	if s.mod == 0 {
		return false
	}
	mine := s.n%s.mod == s.idx
	s.n++
	return !mine
}

func (s *recordSource) Close() error {
	if s.cur == nil {
		return nil
	}
	err := s.cur.Close()
	s.cur = nil
	return err
}

// scanIter is the table scan: the page kernel (fuse.go) over heap pages, one
// buffer-pool pin per page, with a fused Ψ/Ω predicate's block of one or the
// empty block. A batch may overshoot BatchRows by up to one page's rows. Under
// a collector it attributes to its plan nodes itself: the records it read to
// the scan and, fused, those it kept to the filter it is too, each with the
// scan's full wall time (the parent-includes-child convention).
type scanIter struct {
	ev   *evaluator
	src  *recordSource
	kern *pageKernel

	scanSt, filtSt *OpStats
	timed          bool
	done           bool
}

// buildScan instantiates the scan of node scan with kernel kern; with a
// fused kernel, it is also filter, the Filter node kern was compiled from.
func buildScan(env Env, ev *evaluator, scan, filter *plan.Node, kern *pageKernel) (BatchIter, error) {
	src, err := newRecordSource(env, ev, scan)
	if err != nil {
		return nil, err
	}
	s := &scanIter{ev: ev, src: src, kern: kern}
	if ev.collector != nil {
		s.scanSt, s.timed = ev.collector.Stats(scan), ev.collector.timed
		if filter != nil {
			s.filtSt = ev.collector.Stats(filter)
		}
	}
	return s, nil
}

func (s *scanIter) NextBatch() (*Batch, error) {
	if s.done {
		return nil, nil
	}
	var start time.Time
	if s.timed {
		start = time.Now()
	}
	b := s.ev.getBatch()
	var err error
	// One closure per batch, not per page: the reject path must not allocate.
	scanPage := func(pg storage.Page) error {
		_, err := s.kern.scanPage(&pg, 0, s.src, b, nil, math.MaxInt)
		return err
	}
	for len(b.Rows) < BatchRows {
		var more bool
		if more, err = s.src.nextPage(scanPage); err != nil || !more {
			s.done = err == nil
			break
		}
	}
	scanned := s.kern.streamed
	s.kern.streamed = 0
	// One shared-memory write per batch, however many rows it scanned.
	s.ev.publishCounts()
	if s.scanSt != nil {
		s.scanSt.Rows += scanned
		if s.filtSt != nil {
			s.filtSt.Rows += int64(len(b.Rows))
		}
		if s.timed {
			el := time.Since(start)
			s.scanSt.Elapsed += el
			if s.filtSt != nil {
				s.filtSt.Elapsed += el
			}
		}
	}
	return s.ev.finishBatch(b, err)
}

func (s *scanIter) Close() error { return s.src.Close() }
