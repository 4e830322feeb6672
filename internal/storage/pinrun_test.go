package storage

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// fillHeap opens a heap on file and inserts 200-byte records until it takes
// at least pages pages.
func fillHeap(t *testing.T, pool *Pool, file FileID, pages PageID) *Heap {
	t.Helper()
	h, err := OpenHeap(pool, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; h.NumPages() < pages; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("rec-%05d-%0191d", i, 0)), nil); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// pinnedFrames is the pool's count of pinned frames, checked against the
// frames themselves.
func pinnedFrames(t *testing.T, p *Pool) int {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.frames {
		if p.frames[i].pins > 0 {
			n++
		}
	}
	if n != p.pinned {
		t.Fatalf("%d frames have pins, the pool counts %d", n, p.pinned)
	}
	return n
}

// evictAll pins a fresh page of file in every frame of the pool, which
// fails unless every frame can be evicted, then unpins them.
func evictAll(t *testing.T, p *Pool, file FileID) {
	t.Helper()
	var hds []*Handle
	for range p.frames {
		hd, err := p.NewPage(file)
		if err != nil {
			t.Fatalf("NewPage %d of %d: %v", len(hds)+1, len(p.frames), err)
		}
		hds = append(hds, hd)
	}
	for _, hd := range hds {
		hd.Unpin()
	}
}

// readPages calls NextPage n times, or until the scan is exhausted, and
// returns the records it saw.
func readPages(t *testing.T, it *Iter, n int) (out []string) {
	t.Helper()
	for range n {
		more, err := it.NextPage(func(pg Page) error {
			out = appendLive(out, pg)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	return out
}

// A scan's run of pins is released on every way out of it: read to its end,
// an fn error and then Close, Close part way through a run, and a rewind
// (Close part way through, then the next pass over the table, as a hoisted
// join reads its inner table once per block). After each, no frame is
// pinned and NewPage can take every frame of the pool. The heap is resident
// before each exit, so its scans pin runs of more than one page.
func TestScanRunReleasesPinsOnEveryExit(t *testing.T) {
	const frames = 64
	pool, file := newTestPool(t, frames)
	h := fillHeap(t, pool, file, 24)
	np := h.NumPages()
	pool.AttachDisk(2, NewMemDisk())
	all := drainRange(t, h.Scan())
	// midRun checks that the scan holds a run's pins between its calls.
	midRun := func(t *testing.T) {
		t.Helper()
		if pinnedFrames(t, pool) == 0 {
			t.Fatal("no run pinned part way through a resident heap")
		}
	}
	errStop := errors.New("stop")
	for _, exit := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"exhausted", func(t *testing.T) {
			if got := drainPages(t, h.Scan()); !slices.Equal(got, all) {
				t.Fatalf("NextPage read %d records, Next %d", len(got), len(all))
			}
		}},
		{"fn error then Close", func(t *testing.T) {
			it := h.Scan()
			readPages(t, it, 2)
			more, err := it.NextPage(func(Page) error { return errStop })
			if !more || !errors.Is(err, errStop) {
				t.Fatalf("NextPage = %v, %v; want true, the fn error", more, err)
			}
			midRun(t)
			it.Close()
		}},
		{"Close mid-run", func(t *testing.T) {
			it := h.ScanRange(3, np)
			readPages(t, it, 2)
			midRun(t)
			it.Close()
			it.Close() // a second Close releases nothing twice
		}},
		{"rewind", func(t *testing.T) {
			it := h.Scan()
			first := readPages(t, it, 3)
			midRun(t)
			it.Close()
			if got := drainPages(t, h.Scan()); !slices.Equal(got, all) || !slices.Equal(first, all[:len(first)]) {
				t.Fatalf("the second pass read %d records, want %d", len(got), len(all))
			}
		}},
	} {
		t.Run(exit.name, func(t *testing.T) {
			drainRange(t, h.Scan()) // make every page of the heap resident
			exit.run(t)
			if n := pinnedFrames(t, pool); n != 0 {
				t.Fatalf("%d frames still pinned after the scan", n)
			}
			evictAll(t, pool, 2)
		})
	}
}

// Eight scans open at once over a heap four times the pool, each reading a
// page in turn on one goroutine, never find the pool without a victim:
// runs pin at most half its frames between calls, which leaves the rest for
// the first page of each call. The first scan starts on the four resident
// pages, which a run without the cap would pin whole. (Eight goroutines
// each inside NextPage at once would need eight frames of four whatever a
// run pinned.)
func TestScanRunsPinAtMostHalfThePool(t *testing.T) {
	pool, file := newTestPool(t, 4)
	h := fillHeap(t, pool, file, 16)
	np := h.NumPages()
	drainRange(t, h.ScanRange(np-4, np)) // resident: the heap's last four pages
	starts := []PageID{np - 4, 0, np - 3, 2, 5, np - 2, 8, 11}
	its := make([]*Iter, len(starts))
	seen := make([][]string, len(starts))
	for i, lo := range starts {
		its[i] = h.ScanRange(lo, np)
	}
	for open := true; open; {
		open = false
		for i, it := range its {
			more, err := it.NextPage(func(pg Page) error {
				seen[i] = appendLive(seen[i], pg)
				return nil
			})
			if err != nil {
				t.Fatalf("scan %d from page %d: %v", i, starts[i], err)
			}
			open = open || more
			if n := pinnedFrames(t, pool); 2*n > len(pool.frames) {
				t.Fatalf("%d of %d frames pinned between calls", n, len(pool.frames))
			}
		}
	}
	for i, lo := range starts {
		if want := drainRange(t, h.ScanRange(lo, np)); !slices.Equal(seen[i], want) {
			t.Errorf("scan %d from page %d read %d records, want %d", i, lo, len(seen[i]), len(want))
		}
	}
}

// Scans that pin runs count the pool's traffic as a page-at-a-time loop of
// Pin and Unpin does: over an on-disk heap larger than the pool, the same
// scans leave the same PoolStats and move the process-wide counters by the
// same amounts, page by page, resident runs among them.
func TestScanRunsCountPoolTrafficAsPageAtATime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(8)
	pool.AttachDisk(1, d)
	np := fillHeap(t, pool, 1, 40).NumPages()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	ranges := [][2]PageID{{0, np}, {5, 17}, {5, 17}, {0, np}, {30, np}, {28, np}, {np - 12, np}, {0, 9}}
	type traffic struct {
		stats               PoolStats
		hits, misses, reads int64
	}
	replay := func(read func(p *Pool, h *Heap, lo, hi PageID)) traffic {
		t.Helper()
		d, err := OpenFileDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		p := NewPool(16)
		p.AttachDisk(1, d)
		h, err := OpenHeap(p, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.ResetStats()
		hits, misses, reads := mPoolHits.Value(), mPoolMisses.Value(), mPoolReads.Value()
		for _, r := range ranges {
			read(p, h, r[0], r[1])
		}
		if n := pinnedFrames(t, p); n != 0 {
			t.Fatalf("%d frames still pinned", n)
		}
		return traffic{p.Stats(), mPoolHits.Value() - hits, mPoolMisses.Value() - misses, mPoolReads.Value() - reads}
	}
	runs := replay(func(_ *Pool, h *Heap, lo, hi PageID) { drainPages(t, h.ScanRange(lo, hi)) })
	pages := replay(func(p *Pool, _ *Heap, lo, hi PageID) {
		for pg := lo; pg < hi; pg++ {
			hd, err := p.Pin(PageKey{File: 1, Page: pg})
			if err != nil {
				t.Fatal(err)
			}
			hd.Unpin()
		}
	})
	if runs != pages {
		t.Fatalf("scans in runs: %+v\npage at a time: %+v", runs, pages)
	}
	if runs.stats.Hits < 12 || runs.stats.Misses == 0 || runs.stats.DiskReads != runs.stats.Misses {
		t.Fatalf("the scans were not a mix of resident runs and misses: %+v", runs.stats)
	}
}

// Scans on four goroutines pin runs of a heap's pages, and release them,
// while an INSERT goroutine grows the heap through the same pool: every
// scan reads each record whole, none lacks a victim (runs leave half of the
// 16 frames, and four scans and the inserter need one frame each at most
// at once), and when all are done no frame is pinned.
func TestScanRunsUnderConcurrentScansAndInserts(t *testing.T) {
	pool, file := newTestPool(t, 16)
	h := fillHeap(t, pool, file, 24)
	pool.AttachDisk(2, NewMemDisk())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range 400 {
			if _, err := h.Insert([]byte(fmt.Sprintf("new-%05d-%0191d", i, 0)), nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				it := h.Scan()
				for more := true; more; {
					var err error
					more, err = it.NextPage(func(pg Page) error {
						for i := range pg.Len() {
							if rec, live := pg.Record(i); live && len(rec) != 201 {
								return fmt.Errorf("torn record %q", rec)
							}
						}
						return nil
					})
					if err != nil {
						t.Error(err)
						it.Close()
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := pinnedFrames(t, pool); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}
	evictAll(t, pool, 2)
}

// A rollback that drops pages a scan's run holds ahead of the scan (with no
// WAL every page of the batch is dropped, and the next access rereads the
// data file) reports no error, and the scan reads those pages as the data
// file has them, the rolled-back delete undone: before each page it checks
// the pool's count of dropped pinned frames and pins afresh. A page a Pin
// holder holds is still reported, since that holder may read on.
func TestScanRunRereadsPagesARollbackDrops(t *testing.T) {
	pool, file := newTestPool(t, 64)
	h := fillHeap(t, pool, file, 24)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	all := drainRange(t, h.Scan()) // every page resident and clean
	it := h.Scan()
	seen := readPages(t, it, 2)
	if n := pinnedFrames(t, pool); n < 4 {
		t.Fatalf("%d frames pinned: no run ahead of the scan", n)
	}
	if err := pool.BeginBatch(); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(RID{Page: 5, Slot: 0}); err != nil {
		t.Fatal(err)
	}
	if err := pool.AbortBatch(); err != nil {
		t.Fatalf("AbortBatch under a run's pins: %v", err)
	}
	if seen = append(seen, drainPages(t, it)...); !slices.Equal(seen, all) {
		t.Fatalf("the scan read %d records across the rollback, want %d", len(seen), len(all))
	}
	if n := pinnedFrames(t, pool); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}

	hd, err := pool.Pin(PageKey{File: file, Page: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.BeginBatch(); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(RID{Page: 6, Slot: 0}); err != nil {
		t.Fatal(err)
	}
	if err := pool.AbortBatch(); err == nil {
		t.Fatal("AbortBatch dropped a page a Pin holder holds without a word")
	}
	hd.Unpin()
	pool.AttachDisk(2, NewMemDisk())
	evictAll(t, pool, 2)
}

// DetachDisk drops the pages a scan's run holds as it drops the file's
// others, dirty ones written back first, and removes the file: the scan
// fails at its next page, as a page pinned after the detach would, and
// holds no pin after it. Every frame is then free for another file.
func TestScanRunFailsOnADetachedFile(t *testing.T) {
	pool, file := newTestPool(t, 32)
	h := fillHeap(t, pool, file, 24) // resident, and dirty
	it := h.Scan()
	readPages(t, it, 2)
	if pinnedFrames(t, pool) == 0 {
		t.Fatal("no run pinned part way through a resident heap")
	}
	if err := pool.DetachDisk(file); err != nil {
		t.Fatalf("DetachDisk under a run's pins: %v", err)
	}
	if _, err := it.NextPage(func(Page) error { return nil }); err == nil {
		t.Fatal("the scan read on after its file was detached")
	}
	it.Close()
	if n := pinnedFrames(t, pool); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}
	pool.AttachDisk(2, NewMemDisk())
	evictAll(t, pool, 2)
}
