package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/mural-db/mural/internal/plan"
)

// Parallel execution: a Gather operator runs its child subtree on N worker
// goroutines and merges their output streams in arrival order. Workers
// partition the driving table morsel-style — each claims disjoint page
// ranges from a shared atomic cursor and scans them through the (mutex-
// guarded) buffer pool — so the heap is read exactly once in total. Tables
// too small for page-granularity morsels fall back to striping: every
// worker scans the table but keeps only rows whose ordinal matches its
// worker id, which preserves the exactly-once guarantee at row granularity
// (recordSource in batch.go implements both shapes).
//
// Isolation contract: each worker gets its own evaluator — its own RunStats,
// its own ExecStats collector (when the parent collects), and its own G2P
// tally — so no mutable executor state is shared between goroutines (the
// statement's compiled Ψ/Ω predicates, built once for all workers while they
// are built, are immutable). Worker
// figures are folded into the parent's at stream end or Close, whichever
// comes first. Shared engine structures (buffer pool, heaps, B-/M-Tree,
// q-gram, converter registry, the pinned taxonomy) are internally
// synchronized or immutable, and safe for the concurrent readers a Gather
// creates; parallel plans never write, so the WAL's no-steal batch protocol
// is untouched — a concurrent writer's batch pins simply serialize with
// worker page pins at the buffer pool as usual.

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
// that asks, the morsel-driven scheduling discipline: fast workers naturally
// take more of the table. Workers that read the table once per block of
// their input (a hoisted join's inner side) claim in numbered passes, and a
// pass ends for all of them when its last range is claimed.
type morselSource struct {
	table  string
	npages int64
	// chunk is how many pages one claim covers: morselChunkPages when Gather
	// workers share the source, the whole table (at least one page) for a
	// private one.
	chunk   int64
	striped bool
	// next is the first unclaimed page, counting each pass as npages rounded
	// up to a whole chunk.
	next atomic.Int64
}

// claim hands out the next unclaimed range of pass pass.
func (m *morselSource) claim(pass int64) (lo, hi int64, ok bool) {
	span := (m.npages + m.chunk - 1) / m.chunk * m.chunk
	for {
		cur := m.next.Load()
		lo = max(cur, pass*span)
		if lo >= (pass+1)*span {
			return 0, 0, false
		}
		if m.next.CompareAndSwap(cur, lo+m.chunk) {
			lo -= pass * span
			return lo, min(lo+m.chunk, m.npages), true
		}
	}
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
		src = &morselSource{table: n.Table, npages: np, chunk: morselChunkPages}
		// A table with fewer pages than workers×chunk cannot keep everyone
		// busy at page granularity; stripe rows instead (newRecordSource).
		src.striped = np < int64(pc.workers)*morselChunkPages
		pc.shared.sources[n] = src
	}
	return src, nil
}

// workerCell holds what a worker writes on every row — its evaluator's tick,
// unpublished tallies and row operand, its RunStats — with a cache line of padding on
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
type gatherWorker struct {
	root BatchIter
	ev   *evaluator
	// err is this worker's NextBatch error and failed its place among the
	// Gather's failures, numbered as NextBatch returns it; closeErr is its
	// Close error. Written by the worker goroutine, read only after wg.Wait.
	err, closeErr error
	failed        int64
}

// buildGather instantiates the worker pipelines for a Gather node. Workers
// are built sequentially on the calling goroutine — nothing runs until the
// first NextBatch — so shared build state needs no synchronization.
func buildGather(env Env, ev *evaluator, n *plan.Node, budget *atomic.Int64) (BatchIter, error) {
	if ev.par != nil {
		return nil, fmt.Errorf("exec: nested Gather operators are not supported")
	}
	w := n.Workers
	if w < 1 {
		w = 1
	}
	shared := &gatherShared{sources: make(map[*plan.Node]*morselSource)}
	g := &gatherIter{parent: ev, stop: make(chan struct{})}
	for i := 0; i < w; i++ {
		cell := &workerCell{}
		wev := &cell.ev
		*wev = evaluator{
			env:   env,
			stats: &cell.stats,
			par:   &parallelCtx{id: i, workers: w, shared: shared},
			// Workers share the query's governance state (it is atomic /
			// context-based), its batch pool, so a worker's batches flow to
			// the consumer and back into the shared pool, and its compiled
			// predicates; each keeps its own tick counter.
			res:   ev.res,
			pool:  ev.pool,
			preds: ev.preds,
		}
		if ev.collector != nil {
			if ev.collector.Timed() {
				wev.collector = NewExecStats()
			} else {
				wev.collector = NewCountStats()
			}
		}
		root, err := build(env, wev, n.Children[0], budget)
		if err != nil {
			errs := []error{err}
			for _, built := range g.workers {
				errs = append(errs, built.root.Close())
			}
			return nil, errors.Join(errs...)
		}
		g.workers = append(g.workers, &gatherWorker{root: root, ev: wev})
	}
	return g, nil
}

// gatherIter merges the worker streams: whole pooled batches cross the
// exchange channel, their memory charge riding along, one send per ~BatchRows
// rows. Workers start lazily on the first NextBatch; until then Close
// releases the pipelines synchronously. After start, every worker owns (and
// closes) its root on its own goroutine, and Close only signals stop and
// waits — no operator is ever touched from two goroutines.
type gatherIter struct {
	parent  *evaluator
	workers []*gatherWorker

	out      chan *Batch
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// fails numbers the workers' NextBatch failures as they happen: the
	// Gather reports the first, as a serial run reports the first error it
	// meets, whichever other workers fail before they see the stop.
	fails atomic.Int64

	started  bool
	closed   bool
	merged   bool
	finished bool
	failed   error
}

func (g *gatherIter) start() {
	g.started = true
	// Two slots per worker: one batch queued while the next is being filled.
	g.out = make(chan *Batch, len(g.workers)*2)
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

// runWorker pulls one worker pipeline to exhaustion, forwarding its batches.
// It returns early when the consumer signalled stop; a batch that can no
// longer be delivered is recycled here (settling its charge).
func (g *gatherIter) runWorker(w *gatherWorker) {
	defer g.wg.Done()
	func() {
		for {
			select {
			case <-g.stop:
				return
			default:
			}
			b, err := w.root.NextBatch()
			if err != nil {
				w.err, w.failed = err, g.fails.Add(1)
				return
			}
			if b == nil {
				return
			}
			select {
			case g.out <- b:
			case <-g.stop:
				w.ev.putBatch(b)
				return
			}
		}
	}()
	if w.closeErr = w.root.Close(); w.err != nil || w.closeErr != nil {
		// The stream is dead: stop the other workers promptly too.
		g.interrupt()
	}
}

func (g *gatherIter) NextBatch() (*Batch, error) {
	if g.failed != nil {
		return nil, g.failed
	}
	if g.finished {
		return nil, nil
	}
	if !g.started {
		g.start()
	}
	if b, ok := <-g.out; ok {
		return b, nil
	}
	// All workers done (wg.Wait happened-before the channel close, so
	// worker state is visible): merge stats and surface any error.
	if err := g.finish(); err != nil {
		g.failed = err
		return nil, err
	}
	g.finished = true
	return nil, nil
}

// finish folds every worker's counters into the parent evaluator, publishes
// what a worker counted since its last batch, and returns the first
// worker's NextBatch error joined with every worker's Close error.
// Idempotent: the fold happens exactly once no matter how the Gather winds
// down.
func (g *gatherIter) finish() error {
	if g.merged {
		return nil
	}
	g.merged = true
	var first *gatherWorker
	errs := []error{nil}
	for _, w := range g.workers {
		w.ev.publishCounts()
		g.parent.stats.merge(w.ev.stats)
		if g.parent.collector != nil {
			g.parent.collector.Merge(w.ev.collector)
		}
		if w.err != nil && (first == nil || w.failed < first.failed) {
			first = w
		}
		errs = append(errs, w.closeErr)
	}
	if first != nil {
		errs[0] = first.err
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
			errs = append(errs, w.root.Close())
		}
		return errors.Join(errs...)
	}
	g.interrupt()
	g.wg.Wait()
	// Recycle the batches still queued (the closer goroutine closes g.out
	// once wg.Wait returns, so the range terminates), their charge with them.
	for b := range g.out {
		g.parent.putBatch(b)
	}
	// A worker stopped by the query's own cancel or deadline is no failure of
	// Close: the consumer had stopped pulling, and the checkpoint that told it
	// to (Cursor.Next's, an operator's above) already surfaced the error.
	if stop := g.parent.res.Err(); stop != nil {
		for _, w := range g.workers {
			if errors.Is(w.err, stop) {
				w.err = nil
			}
			if errors.Is(w.closeErr, stop) {
				w.closeErr = nil
			}
		}
	}
	err := g.finish()
	if g.failed != nil {
		// NextBatch already surfaced this error; don't report it twice.
		return nil
	}
	return err
}
