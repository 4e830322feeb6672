// Golden package for the iterclose analyzer. Any value with Next (or
// NextBatch) and Close() error methods counts as an iterator; the local
// scanIter mirrors the exec package's TupleIter shape, batchScan (at the end)
// its BatchIter.
package iterclose

import "errors"

type Tuple []int

type scanIter struct{ closed bool }

func (s *scanIter) Next() (Tuple, bool, error) { return nil, false, nil }
func (s *scanIter) Close() error               { s.closed = true; return nil }

func open(name string) (*scanIter, error) { return &scanIter{}, nil }

// joinIter wraps two children; constructing it takes ownership.
type joinIter struct{ left, right *scanIter }

func (j *joinIter) Next() (Tuple, bool, error) { return nil, false, nil }
func (j *joinIter) Close() error {
	return errors.Join(j.left.Close(), j.right.Close())
}

func newJoin(l, r *scanIter) *joinIter { return &joinIter{left: l, right: r} }

// cursor drains and closes itself in All.
type cursor struct{ it *scanIter }

func (c *cursor) Next() (Tuple, bool, error) { return nil, false, nil }
func (c *cursor) Close() error               { return c.it.Close() }
func (c *cursor) All() ([]Tuple, error)      { return nil, c.Close() }

func openCursor() (*cursor, error) { return &cursor{}, nil }

// ---- negative cases ----

func closedOnAllPaths() error {
	it, err := open("a")
	if err != nil {
		return err
	}
	defer func() { _ = it.Close() }()
	_, _, err = it.Next()
	return err
}

func returned() (*scanIter, error) {
	return open("b")
}

func handedToWrapper() (*joinIter, error) {
	l, err := open("l")
	if err != nil {
		return nil, err
	}
	r, err := open("r")
	if err != nil {
		_ = l.Close()
		return nil, err
	}
	return newJoin(l, r), nil
}

func drainedByAll() ([]Tuple, error) {
	c, err := openCursor()
	if err != nil {
		return nil, err
	}
	return c.All()
}

func annotated() *scanIter {
	it, _ := open("c") //lint:iter-escapes registered with the session
	register(it)
	return nil
}

var registry []*scanIter

func register(it *scanIter) { registry = append(registry, it) }

func returnClose() error {
	it, err := open("d")
	if err != nil {
		return err
	}
	return it.Close()
}

// gatherIter mirrors the exec package's exchange operator: it owns a slice
// of worker pipelines built in a loop.
type gatherWorker struct{ root *scanIter }

type gatherIter struct{ workers []*gatherWorker }

func (g *gatherIter) Next() (Tuple, bool, error) { return nil, false, nil }
func (g *gatherIter) Close() error {
	var errs []error
	for _, w := range g.workers {
		errs = append(errs, w.root.Close())
	}
	return errors.Join(errs...)
}

// gatherBuilderClosesOnError is the exec.buildGather shape: each loop
// iteration's iterator escapes into the worker slice (discharging its
// release duty); the error path closes everything built so far before
// bailing.
func gatherBuilderClosesOnError(n int) (*gatherIter, error) {
	g := &gatherIter{}
	for i := 0; i < n; i++ {
		root, err := open("worker")
		if err != nil {
			errs := []error{err}
			for _, built := range g.workers {
				errs = append(errs, built.root.Close())
			}
			return nil, errors.Join(errs...)
		}
		g.workers = append(g.workers, &gatherWorker{root: root})
	}
	return g, nil
}

// ---- positive cases ----

func leakedAtEnd() {
	it, _ := open("x") // want `iterator acquired by open is not released`
	_, _, _ = it.Next()
}

func leakOnSecondAcquire() (*joinIter, error) {
	l, err := open("l") // want `iterator acquired by open is not released`
	if err != nil {
		return nil, err
	}
	r, err := open("r")
	if err != nil {
		return nil, err // l leaks: err was reassigned, this guards r only
	}
	return newJoin(l, r), nil
}

func leakOnErrorBranch(cond bool) error {
	it, err := open("y") // want `iterator acquired by open is not released`
	if err != nil {
		return err
	}
	if cond {
		return errors.New("bail") // it leaks
	}
	return it.Close()
}

// gatherBuilderLeaksOnError is the broken variant of the builder: bailing
// out of the loop without closing the root acquired in THIS iteration (the
// earlier ones escaped into the slice and are fine).
func gatherBuilderLeaksOnError(n int, bad bool) (*gatherIter, error) {
	g := &gatherIter{}
	for i := 0; i < n; i++ {
		root, err := open("worker") // want `iterator acquired by open is not released`
		if err != nil {
			return nil, err
		}
		if bad {
			return nil, errors.New("validation failed after open") // root leaks
		}
		g.workers = append(g.workers, &gatherWorker{root: root})
	}
	return g, nil
}

// ---- cache-builder shapes ----

// cacheWarmClosesOnError mirrors the shared-cache warmers: scan once per
// key to pre-fill a cache, closing the scan on success AND on the error
// path inside the loop.
func cacheWarmClosesOnError(names []string) (map[string]Tuple, error) {
	cache := map[string]Tuple{}
	for _, n := range names {
		it, err := open(n)
		if err != nil {
			return nil, err
		}
		t, _, err := it.Next()
		if err != nil {
			_ = it.Close()
			return nil, err
		}
		cache[n] = t
		_ = it.Close()
	}
	return cache, nil
}

// cacheWarmLeaksOnError is the broken warmer: a mid-loop error return
// leaks the iterator opened in this iteration.
func cacheWarmLeaksOnError(names []string) (map[string]Tuple, error) {
	cache := map[string]Tuple{}
	for _, n := range names {
		it, err := open(n) // want `iterator acquired by open is not released`
		if err != nil {
			return nil, err
		}
		t, _, err := it.Next()
		if err != nil {
			return nil, err // it leaks
		}
		cache[n] = t
		_ = it.Close()
	}
	return cache, nil
}

// ---- cancelable-operator shapes ----

// resources mirrors exec.Resources: the cancel checkpoint and the memory
// budget the governed operators consult.
type resources struct{ budget int64 }

func (r *resources) Err() error         { return nil }
func (r *resources) Grow(b int64) error { return nil }
func (r *resources) Release(b int64)    {}

// cancelIter mirrors the checkpointed operator wrappers: it owns a child
// and a tick counter, and Close forwards to the child.
type cancelIter struct {
	child *scanIter
	res   *resources
	ticks uint64
}

func (c *cancelIter) Next() (Tuple, bool, error) {
	if c.ticks++; c.ticks&1023 == 0 {
		if err := c.res.Err(); err != nil {
			return nil, false, err
		}
	}
	return c.child.Next()
}
func (c *cancelIter) Close() error { return c.child.Close() }

// governedBuildClosesOnError is the governed exec.Run shape: the child is
// built first, and if the pre-run checkpoint already fails, the child is
// closed before the error escapes.
func governedBuildClosesOnError(res *resources) (*cancelIter, error) {
	child, err := open("scan")
	if err != nil {
		return nil, err
	}
	if err := res.Err(); err != nil {
		_ = child.Close()
		return nil, err
	}
	return &cancelIter{child: child, res: res}, nil
}

// governedBuildLeaksOnError is the broken variant: the pre-run checkpoint
// bails without releasing the child it already owns.
func governedBuildLeaksOnError(res *resources) (*cancelIter, error) {
	child, err := open("scan") // want `iterator acquired by open is not released`
	if err != nil {
		return nil, err
	}
	if err := res.Err(); err != nil {
		return nil, err // child leaks
	}
	return &cancelIter{child: child, res: res}, nil
}

// governedMaterializeReleasesOnError mirrors the materializing operators
// under a memory budget: a failed Grow must still close the input before
// surfacing ErrMemoryLimit.
func governedMaterializeReleasesOnError(res *resources) ([]Tuple, error) {
	it, err := open("build")
	if err != nil {
		return nil, err
	}
	var out []Tuple
	var bytes int64
	for {
		t, ok, err := it.Next()
		if err != nil {
			_ = it.Close()
			res.Release(bytes)
			return nil, err
		}
		if !ok {
			break
		}
		// Record the charge before checking it: a failing Grow still counts
		// and the error path below must release it.
		bytes += int64(len(t))
		if err := res.Grow(int64(len(t))); err != nil {
			_ = it.Close()
			res.Release(bytes)
			return nil, err
		}
		out = append(out, t)
	}
	_ = it.Close()
	res.Release(bytes)
	return out, nil
}

// governedMaterializeLeaksOnGrowFailure is the broken variant: the memory
// rejection path returns without closing the input iterator.
func governedMaterializeLeaksOnGrowFailure(res *resources) ([]Tuple, error) {
	it, err := open("build") // want `iterator acquired by open is not released`
	if err != nil {
		return nil, err
	}
	var out []Tuple
	for {
		t, ok, err := it.Next()
		if err != nil {
			return nil, err // it leaks
		}
		if !ok {
			break
		}
		if err := res.Grow(int64(len(t))); err != nil {
			return nil, err // it leaks on the memory-limit path too
		}
		out = append(out, t)
	}
	_ = it.Close()
	return out, nil
}

// ---- batch operators: NextBatch + Close() error is an iterator too ----

type Batch struct{ Rows []Tuple }

type batchScan struct{ closed bool }

func (s *batchScan) NextBatch() (*Batch, error) { return nil, nil }
func (s *batchScan) Close() error               { s.closed = true; return nil }

func openBatch(name string) (*batchScan, error) { return &batchScan{}, nil }

// batchJoin owns its two inputs.
type batchJoin struct{ left, right *batchScan }

func (j *batchJoin) NextBatch() (*Batch, error) { return nil, nil }
func (j *batchJoin) Close() error {
	return errors.Join(j.left.Close(), j.right.Close())
}

// batchJoinBuilderClosesLeft is the join-builder shape: the right input's
// build failure closes the left one already built.
func batchJoinBuilderClosesLeft() (*batchJoin, error) {
	left, err := openBatch("l")
	if err != nil {
		return nil, err
	}
	right, err := openBatch("r")
	if err != nil {
		return nil, errors.Join(err, left.Close())
	}
	return &batchJoin{left: left, right: right}, nil
}

func batchJoinBuilderLeaksLeft() (*batchJoin, error) {
	left, err := openBatch("l") // want `iterator acquired by openBatch is not released`
	if err != nil {
		return nil, err
	}
	right, err := openBatch("r")
	if err != nil {
		return nil, err // left leaks
	}
	return &batchJoin{left: left, right: right}, nil
}

// batchDrainLeaksOnError pulls batches and forgets the operator when a pull
// fails.
func batchDrainLeaksOnError() (int, error) {
	it, err := openBatch("t") // want `iterator acquired by openBatch is not released`
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		b, err := it.NextBatch()
		if err != nil {
			return n, err // it leaks
		}
		if b == nil {
			return n, it.Close()
		}
		n += len(b.Rows)
	}
}
