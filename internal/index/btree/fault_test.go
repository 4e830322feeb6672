package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/mural-db/mural/internal/storage"
)

// faultDisk injects read/write failures under the tree — the same harness
// shape as the storage package's, local here because that one is
// test-private.
type faultDisk struct {
	inner      storage.Disk
	failReads  atomic.Bool
	failWrites atomic.Bool
}

var errInjected = errors.New("injected disk fault")

func (d *faultDisk) ReadPage(id storage.PageID, buf []byte) error {
	if d.failReads.Load() {
		return fmt.Errorf("read page %d: %w", id, errInjected)
	}
	return d.inner.ReadPage(id, buf)
}

func (d *faultDisk) WritePage(id storage.PageID, buf []byte) error {
	if d.failWrites.Load() {
		return fmt.Errorf("write page %d: %w", id, errInjected)
	}
	return d.inner.WritePage(id, buf)
}

func (d *faultDisk) Allocate() (storage.PageID, error) {
	if d.failWrites.Load() {
		return storage.InvalidPageID, fmt.Errorf("allocate: %w", errInjected)
	}
	return d.inner.Allocate()
}

func (d *faultDisk) NumPages() storage.PageID { return d.inner.NumPages() }
func (d *faultDisk) Sync() error              { return d.inner.Sync() }
func (d *faultDisk) Close() error             { return d.inner.Close() }

func key(i int) []byte {
	k := make([]byte, 8)
	binary.BigEndian.PutUint64(k, uint64(i))
	return k
}

// TestBTreeSurfacesWriteFaultsDuringSplits drives inserts through a tiny
// pool so splits force eviction writebacks, injects a write fault, and
// checks that (a) the error propagates, (b) previously inserted keys stay
// findable once the fault clears, and (c) the tree holds exactly the
// acknowledged inserts.
func TestBTreeSurfacesWriteFaultsDuringSplits(t *testing.T) {
	fd := &faultDisk{inner: storage.NewMemDisk()}
	pool := storage.NewPool(8)
	pool.AttachDisk(1, fd)
	tr, err := Create(pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Large keys split pages quickly.
	pad := make([]byte, 512)
	mk := func(i int) []byte { return append(key(i), pad...) }

	inserted := 0
	for ; inserted < 64; inserted++ {
		if err := tr.Insert(mk(inserted), storage.RID{Page: storage.PageID(inserted)}); err != nil {
			t.Fatalf("warm-up insert %d: %v", inserted, err)
		}
	}
	fd.failWrites.Store(true)
	var faulted bool
	for i := inserted; i < inserted+512; i++ {
		if err := tr.Insert(mk(i), storage.RID{Page: storage.PageID(i)}); err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("insert error does not surface injected fault: %v", err)
			}
			faulted = true
			break
		}
		inserted++
	}
	if !faulted {
		t.Skip("pool large enough that no writeback occurred; cannot inject")
	}
	fd.failWrites.Store(false)

	if got := len(scanAll(t, tr)); got != inserted {
		t.Errorf("tree holds %d entries after fault, want %d acknowledged inserts", got, inserted)
	}
	for i := 0; i < inserted; i++ {
		rids, err := tr.Search(mk(i))
		if err != nil {
			t.Fatalf("search %d after fault cleared: %v", i, err)
		}
		if len(rids) != 1 || rids[0].Page != storage.PageID(i) {
			t.Fatalf("key %d lost or misplaced after write fault: %v", i, rids)
		}
	}
	// The tree must remain writable.
	if err := tr.Insert(mk(100000), storage.RID{Page: 100000}); err != nil {
		t.Errorf("tree not usable after fault cleared: %v", err)
	}
}

// TestBTreeSurfacesReadFaults checks read faults propagate out of Search
// and Range without panicking, and that service resumes when they clear.
func TestBTreeSurfacesReadFaults(t *testing.T) {
	fd := &faultDisk{inner: storage.NewMemDisk()}
	pool := storage.NewPool(4)
	pool.AttachDisk(1, fd)
	tr, err := Create(pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tr.Insert(key(i), storage.RID{Page: storage.PageID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := pool.DetachDisk(1); err != nil {
		t.Fatal(err)
	}
	pool.AttachDisk(1, fd)

	fd.failReads.Store(true)
	if _, err := tr.Search(key(42)); !errors.Is(err, errInjected) {
		t.Errorf("Search must surface the injected read fault, got %v", err)
	}
	if err := tr.Range(key(0), key(199), func([]byte, storage.RID) bool { return true }); !errors.Is(err, errInjected) {
		t.Errorf("Range must surface the injected read fault, got %v", err)
	}
	fd.failReads.Store(false)
	rids, err := tr.Search(key(42))
	if err != nil || len(rids) != 1 {
		t.Errorf("tree did not recover after read fault: %v %v", err, rids)
	}
}

// TestBTreeCrashFuse drives the crash harness (kill-after-N with torn
// pages) under inserts: whatever state the disk froze in, reopening the
// tree must either succeed with intact checksums or fail cleanly — never
// panic, never serve a torn page as valid.
func TestBTreeCrashFuse(t *testing.T) {
	for n := 0; n < 60; n += 1 {
		mem := storage.NewMemDisk()
		state := storage.NewCrashState(n)
		state.SetTear(n%2 == 1)
		cd := storage.NewCrashDisk(mem, state)
		pool := storage.NewPool(4)
		pool.AttachDisk(1, cd)
		tr, err := Create(pool, 1)
		if err == nil {
			for i := 0; i < 300; i++ {
				if err = tr.Insert(key(i), storage.RID{Page: storage.PageID(i)}); err != nil {
					break
				}
			}
			_ = pool.FlushAll()
		}
		// "Reboot": a fresh pool over the frozen disk. Open may fail (torn
		// meta page) but must not panic; when it succeeds, searches must
		// not either.
		pool2 := storage.NewPool(4)
		pool2.AttachDisk(1, mem)
		tr2, err := Open(pool2, 1)
		if err != nil {
			continue
		}
		for i := 0; i < 300; i += 37 {
			if _, err := tr2.Search(key(i)); err != nil {
				break // checksum mismatch surfacing as an error is correct
			}
		}
	}
}
