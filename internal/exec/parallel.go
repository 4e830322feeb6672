package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
)

// Parallel execution: a Gather operator runs its child subtree on N worker
// goroutines and merges their output streams in arrival order. Workers
// partition the driving table morsel-style — each claims disjoint page
// ranges from a shared atomic cursor and scans them through the (mutex-
// guarded) buffer pool — so the heap is read exactly once in total. Tables
// too small for page-granularity morsels fall back to striping: every
// worker scans the table but keeps only rows whose ordinal matches its
// worker id, which preserves the exactly-once guarantee at row granularity.
//
// Isolation contract: each worker gets its own evaluator — its own RunStats,
// its own ExecStats collector (when the parent collects), and its own G2P
// memo cache — so no executor state is shared between goroutines. Worker
// figures are folded into the parent's at stream end or Close, whichever
// comes first. Shared engine structures (buffer pool, heaps, B-/M-Tree,
// q-gram, closure cache, converter registry) are internally synchronized
// and safe for the concurrent readers a Gather creates; parallel plans
// never write, so the WAL's no-steal batch protocol is untouched — a
// concurrent writer's batch pins simply serialize with worker page pins at
// the buffer pool as usual.

// gatherBatchSize is how many tuples a worker accumulates per channel send;
// batching amortizes the channel transfer over rows that each cost far more
// than a send to produce (a Ψ evaluation is ~µs).
const gatherBatchSize = 64

// morselChunkPages is how many heap pages one morsel claim covers.
const morselChunkPages = 4

// parallelCtx is the per-worker build/runtime context; its presence on an
// evaluator marks "building (then running) inside a Gather worker".
type parallelCtx struct {
	id      int
	workers int
	shared  *gatherShared
}

// gatherShared is built once per Gather and shared by its workers. The map
// is populated while workers are built sequentially and only read after, so
// it needs no lock; the morselSources inside hand out ranges atomically.
type gatherShared struct {
	sources map[*plan.Node]*morselSource
}

// morselSource hands out disjoint page ranges of one table to any worker
// that asks. Claims are a single atomic add, the morsel-driven scheduling
// discipline: fast workers naturally take more of the table.
type morselSource struct {
	table   string
	npages  int64
	striped bool
	next    atomic.Int64
}

func (m *morselSource) claim() (lo, hi int64, ok bool) {
	lo = m.next.Add(morselChunkPages) - morselChunkPages
	if lo >= m.npages {
		return 0, 0, false
	}
	hi = lo + morselChunkPages
	if hi > m.npages {
		hi = m.npages
	}
	return lo, hi, true
}

// morselsFor returns (creating on first use) the shared morsel source for a
// scan node. Workers are built sequentially, so the map needs no lock.
func (pc *parallelCtx) morselsFor(env Env, n *plan.Node) (*morselSource, error) {
	src, ok := pc.shared.sources[n]
	if !ok {
		np, err := env.TablePages(n.Table)
		if err != nil {
			return nil, err
		}
		src = &morselSource{table: n.Table, npages: np}
		// A table with fewer pages than workers×chunk cannot keep everyone
		// busy at page granularity; stripe rows instead.
		src.striped = np < int64(pc.workers)*morselChunkPages
		pc.shared.sources[n] = src
	}
	return src, nil
}

// scanIter builds this worker's share of a parallel table scan. The
// worker's evaluator threads through so both partition shapes checkpoint
// cancellation: a worker can spin through many claimed pages (or skip long
// stripe runs) without ever surfacing a row to a governed parent iterator.
func (pc *parallelCtx) scanIter(env Env, ev *evaluator, n *plan.Node) (TupleIter, error) {
	src, err := pc.morselsFor(env, n)
	if err != nil {
		return nil, err
	}
	if src.striped {
		child, err := env.ScanTable(n.Table)
		if err != nil {
			return nil, err
		}
		return &stripedIter{child: child, ev: ev, idx: int64(pc.id), mod: int64(pc.workers)}, nil
	}
	return &morselScanIter{env: env, ev: ev, src: src}, nil
}

// morselScanIter scans morsels claimed from the shared source until the
// table is exhausted.
type morselScanIter struct {
	env Env
	ev  *evaluator
	src *morselSource
	cur TupleIter
}

func (m *morselScanIter) Next() (types.Tuple, bool, error) {
	for {
		if err := m.ev.tick(); err != nil {
			return nil, false, err
		}
		if m.cur == nil {
			lo, hi, ok := m.src.claim()
			if !ok {
				return nil, false, nil
			}
			it, err := m.env.ScanTablePages(m.src.table, lo, hi)
			if err != nil {
				return nil, false, err
			}
			m.cur = it
		}
		t, ok, err := m.cur.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return t, true, nil
		}
		err = m.cur.Close()
		m.cur = nil
		if err != nil {
			return nil, false, err
		}
	}
}

func (m *morselScanIter) Close() error {
	if m.cur == nil {
		return nil
	}
	err := m.cur.Close()
	m.cur = nil
	return err
}

// stripedIter keeps every mod-th row of its child, offset by this worker's
// id: the row-granularity fallback partition for small tables.
type stripedIter struct {
	child TupleIter
	ev    *evaluator
	idx   int64
	mod   int64
	n     int64
}

func (s *stripedIter) Next() (types.Tuple, bool, error) {
	for {
		if err := s.ev.tick(); err != nil {
			return nil, false, err
		}
		t, ok, err := s.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		keep := s.n%s.mod == s.idx
		s.n++
		if keep {
			return t, true, nil
		}
	}
}

func (s *stripedIter) Close() error { return s.child.Close() }

// workerCell holds what a worker writes on every row — its evaluator's tick
// and unpublished tallies, its RunStats — with a cache line of padding on
// either side. The cells of one Gather are allocated back to back by the
// building goroutine; unpadded, two workers' counters land on one line and
// every row's increment steals it from the other core.
type workerCell struct {
	_     [64]byte
	ev    evaluator
	stats RunStats
	_     [64]byte
}

// gatherWorker is one worker pipeline plus its isolated measuring state.
// Exactly one of root/broot is set: vectorized workers drive a batch
// pipeline and ship whole pooled batches through the merge channel.
type gatherWorker struct {
	root  TupleIter
	broot BatchIter
	ev    *evaluator
	// err is this worker's terminal error (Next or Close); written by the
	// worker goroutine, read only after wg.Wait.
	err error
}

func (w *gatherWorker) close() error {
	if w.broot != nil {
		return w.broot.Close()
	}
	return w.root.Close()
}

// buildGather instantiates the worker pipelines for a Gather node. Workers
// are built sequentially on the calling goroutine — nothing runs until the
// first Next — so shared build state needs no synchronization.
func buildGather(env Env, ev *evaluator, n *plan.Node) (TupleIter, error) {
	if ev.par != nil {
		return nil, fmt.Errorf("exec: nested Gather operators are not supported")
	}
	w := n.Workers
	if w < 1 {
		w = 1
	}
	// A shard exchange carries one Remote child per shard; worker i drives
	// child i's stream so a slow shard never holds up the others. A local
	// Gather keeps the classic shape: every worker runs the same subtree
	// over disjoint morsels.
	fanout := len(n.Children) > 1
	if fanout {
		w = len(n.Children)
	}
	shared := &gatherShared{sources: make(map[*plan.Node]*morselSource)}
	g := &gatherIter{parent: ev, res: ev.res, stop: make(chan struct{})}
	for i := 0; i < w; i++ {
		cell := &workerCell{}
		wev := &cell.ev
		*wev = evaluator{
			env:   env,
			stats: &cell.stats,
			par:   &parallelCtx{id: i, workers: w, shared: shared},
			// Workers share the query's governance state (it is atomic /
			// context-based), but each keeps its own tick counter.
			res: ev.res,
		}
		if ev.collector != nil {
			if ev.collector.Timed() {
				wev.collector = NewExecStats()
			} else {
				wev.collector = NewCountStats()
			}
		}
		// Vectorized workers inherit the parent's strategy and batch pool, so
		// a worker's batches flow to the consumer and back into the shared
		// pool. The worker drives the batch pipeline directly — one channel
		// send per ~BatchRows rows instead of per gatherBatchSize.
		wev.vec, wev.fuse, wev.pool = ev.vec, ev.fuse, ev.pool
		child := n.Children[0]
		if fanout {
			child = n.Children[i]
		}
		w := &gatherWorker{ev: wev}
		var err error
		if wev.vec {
			var ok bool
			w.broot, ok, err = buildVec(env, wev, child)
			if err == nil && !ok {
				w.root, err = build(env, wev, child)
			}
		} else {
			w.root, err = build(env, wev, child)
		}
		if err != nil {
			errs := []error{err}
			for _, built := range g.workers {
				errs = append(errs, built.close())
			}
			return nil, errors.Join(errs...)
		}
		g.workers = append(g.workers, w)
	}
	return g, nil
}

// gatherIter merges the worker streams. Workers start lazily on the first
// Next; until then Close releases the pipelines synchronously. After start,
// every worker owns (and closes) its root on its own goroutine, and Close
// only signals stop and waits — no iterator is ever touched from two
// goroutines.
// gatherBatch is one merged unit: the rows plus their accounted bytes (zero
// when the query is ungoverned). Bytes stay charged from the producer's
// Grow until the consumer finishes the batch or the Gather winds down. When
// a vectorized worker produced it, b is the pooled batch carrying the rows;
// the consumer recycles it (which also settles the bytes) instead of a bare
// Release.
type gatherBatch struct {
	rows  []types.Tuple
	bytes int64
	b     *Batch
}

type gatherIter struct {
	parent  *evaluator
	res     *Resources
	workers []*gatherWorker

	out      chan gatherBatch
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	started    bool
	closed     bool
	merged     bool
	finished   bool
	failed     error
	batch      []types.Tuple
	batchBytes int64
	curBatch   *Batch
	bi         int
}

// finishBatch settles the batch currently being consumed: a pooled batch is
// recycled (which releases its charge), a row-drain batch just releases.
func (g *gatherIter) finishBatch() {
	if g.curBatch != nil {
		g.parent.putBatch(g.curBatch)
		g.curBatch = nil
	} else {
		g.res.Release(g.batchBytes)
	}
	g.batchBytes = 0
}

func (g *gatherIter) start() {
	g.started = true
	g.out = make(chan gatherBatch, len(g.workers)*2)
	for _, w := range g.workers {
		g.wg.Add(1)
		go g.runWorker(w)
	}
	go func() {
		g.wg.Wait()
		close(g.out)
	}()
}

func (g *gatherIter) interrupt() {
	g.stopOnce.Do(func() { close(g.stop) })
}

func (g *gatherIter) runWorker(w *gatherWorker) {
	defer g.wg.Done()
	var err error
	if w.broot != nil {
		err = g.drainBatches(w)
	} else {
		err = g.drain(w)
	}
	err = errors.Join(err, w.close())
	if err != nil {
		w.err = err
		// The stream is dead: stop the other workers promptly too.
		g.interrupt()
	}
}

// drainBatches pulls a vectorized worker pipeline to exhaustion, forwarding
// whole pooled batches: one send per ~BatchRows rows. The producer already
// charged each batch's bytes (chargeBatch), so the charge simply rides the
// channel; a batch that cannot be delivered because the consumer stopped is
// recycled here (settling its charge).
func (g *gatherIter) drainBatches(w *gatherWorker) error {
	for {
		select {
		case <-g.stop:
			return nil
		default:
		}
		b, err := w.broot.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		select {
		case g.out <- gatherBatch{rows: b.Rows, bytes: b.bytes, b: b}:
		case <-g.stop:
			w.ev.putBatch(b)
			return nil
		}
	}
}

// drain pulls the worker pipeline to exhaustion, shipping rows in batches.
// It returns early (nil) when the consumer signalled stop. Each row is a
// cancellation checkpoint (through the worker's own evaluator), so a
// canceled parallel scan stops within one tick interval per worker; under a
// memory budget every in-flight merge batch is charged before it is queued.
func (g *gatherIter) drain(w *gatherWorker) error {
	batch := make([]types.Tuple, 0, gatherBatchSize)
	var batchBytes int64
	flush := func() (bool, error) {
		if len(batch) == 0 {
			return true, nil
		}
		if err := g.res.Grow(batchBytes); err != nil {
			// Grow records the charge even on failure, and this batch never
			// reaches the consumer — return the bytes here, or they stay
			// accounted for the rest of the query.
			g.res.Release(batchBytes)
			return false, err
		}
		select {
		case g.out <- gatherBatch{rows: batch, bytes: batchBytes}:
			batch = make([]types.Tuple, 0, gatherBatchSize)
			batchBytes = 0
			return true, nil
		case <-g.stop:
			g.res.Release(batchBytes)
			return false, nil
		}
	}
	for {
		select {
		case <-g.stop:
			return nil
		default:
		}
		if err := w.ev.tick(); err != nil {
			return err
		}
		t, ok, err := w.root.Next()
		if err != nil {
			return err
		}
		if !ok {
			_, err := flush()
			return err
		}
		batch = append(batch, t)
		if g.res != nil {
			batchBytes += tupleBytes(t)
		}
		if len(batch) == gatherBatchSize {
			ok, err := flush()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
	}
}

func (g *gatherIter) Next() (types.Tuple, bool, error) {
	if g.failed != nil {
		return nil, false, g.failed
	}
	if g.finished {
		return nil, false, nil
	}
	if !g.started {
		g.start()
	}
	if g.bi < len(g.batch) {
		t := g.batch[g.bi]
		g.bi++
		return t, true, nil
	}
	g.finishBatch()
	batch, ok := <-g.out
	if !ok {
		// All workers done (wg.Wait happened-before the channel close, so
		// worker state is visible): merge stats and surface any error.
		if err := g.finish(); err != nil {
			g.failed = err
			return nil, false, err
		}
		g.finished = true
		return nil, false, nil
	}
	g.batch, g.bi, g.batchBytes, g.curBatch = batch.rows, 1, batch.bytes, batch.b
	return batch.rows[0], true, nil
}

// finish folds every worker's counters into the parent evaluator, publishes
// what a worker counted since its last batch, and joins worker errors.
// Idempotent: the fold happens exactly once no matter how the Gather winds
// down.
func (g *gatherIter) finish() error {
	if g.merged {
		return nil
	}
	g.merged = true
	var errs []error
	for _, w := range g.workers {
		w.ev.publishCounts()
		g.parent.stats.merge(w.ev.stats)
		if g.parent.collector != nil {
			g.parent.collector.Merge(w.ev.collector)
		}
		if w.err != nil {
			errs = append(errs, w.err)
		}
	}
	return errors.Join(errs...)
}

func (g *gatherIter) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	if !g.started {
		var errs []error
		for _, w := range g.workers {
			errs = append(errs, w.close())
		}
		return errors.Join(errs...)
	}
	g.interrupt()
	g.wg.Wait()
	// Settle the batch being consumed and any batches still queued (the
	// closer goroutine closes g.out once wg.Wait returns, so the range
	// terminates); pooled batches go back to the pool, their charge with
	// them.
	g.finishBatch()
	for b := range g.out {
		if b.b != nil {
			g.parent.putBatch(b.b)
		} else {
			g.res.Release(b.bytes)
		}
	}
	err := g.finish()
	if g.failed != nil {
		// Next already surfaced this error; don't report it twice.
		return nil
	}
	return err
}
