package storage

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// faultDisk wraps a Disk and fails operations on command — the
// failure-injection harness for the buffer pool and heap layers.
type faultDisk struct {
	inner      Disk
	failReads  atomic.Bool
	failWrites atomic.Bool
}

var errInjected = errors.New("injected disk fault")

func (d *faultDisk) ReadPage(id PageID, buf []byte) error {
	if d.failReads.Load() {
		return fmt.Errorf("read page %d: %w", id, errInjected)
	}
	return d.inner.ReadPage(id, buf)
}

func (d *faultDisk) WritePage(id PageID, buf []byte) error {
	if d.failWrites.Load() {
		return fmt.Errorf("write page %d: %w", id, errInjected)
	}
	return d.inner.WritePage(id, buf)
}

func (d *faultDisk) Allocate() (PageID, error) {
	if d.failWrites.Load() {
		return InvalidPageID, fmt.Errorf("allocate: %w", errInjected)
	}
	return d.inner.Allocate()
}

func (d *faultDisk) NumPages() PageID { return d.inner.NumPages() }
func (d *faultDisk) Sync() error      { return d.inner.Sync() }
func (d *faultDisk) Close() error     { return d.inner.Close() }

func TestPoolSurfacesReadFaults(t *testing.T) {
	fd := &faultDisk{inner: NewMemDisk()}
	pool := NewPool(4)
	pool.AttachDisk(1, fd)
	h, err := pool.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	key := h.Key()
	copy(h.Data(), "content")
	h.MarkDirty()
	h.Unpin()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Evict by detaching, then fail the re-read.
	if err := pool.DetachDisk(1); err != nil {
		t.Fatal(err)
	}
	pool.AttachDisk(1, fd)
	fd.failReads.Store(true)
	if _, err := pool.Pin(key); !errors.Is(err, errInjected) {
		t.Errorf("Pin must surface the injected fault, got %v", err)
	}
	// Recovery after the fault clears.
	fd.failReads.Store(false)
	h2, err := pool.Pin(key)
	if err != nil {
		t.Fatalf("pool did not recover: %v", err)
	}
	if string(h2.Data()[:7]) != "content" {
		t.Error("content lost across fault")
	}
	h2.Unpin()
}

func TestPoolSurfacesWriteFaultsOnEviction(t *testing.T) {
	fd := &faultDisk{inner: NewMemDisk()}
	pool := NewPool(2)
	pool.AttachDisk(1, fd)
	// Fill both frames with dirty pages.
	for i := 0; i < 2; i++ {
		h, err := pool.NewPage(1)
		if err != nil {
			t.Fatal(err)
		}
		h.Data()[0] = byte(i)
		h.MarkDirty()
		h.Unpin()
	}
	fd.failWrites.Store(true)
	// The next allocation needs an eviction, which needs a writeback.
	if _, err := pool.NewPage(1); !errors.Is(err, errInjected) {
		t.Errorf("eviction writeback fault must surface, got %v", err)
	}
	fd.failWrites.Store(false)
	if _, err := pool.NewPage(1); err != nil {
		t.Errorf("pool did not recover after write fault: %v", err)
	}
}

func TestHeapSurfacesFaults(t *testing.T) {
	fd := &faultDisk{inner: NewMemDisk()}
	pool := NewPool(2)
	pool.AttachDisk(1, fd)
	h, err := OpenHeap(pool, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert([]byte("row"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := pool.DetachDisk(1); err != nil {
		t.Fatal(err)
	}
	pool.AttachDisk(1, fd)
	fd.failReads.Store(true)
	if _, err := h.Get(rid); !errors.Is(err, errInjected) {
		t.Errorf("heap Get must surface the fault, got %v", err)
	}
	it := h.Scan()
	if _, _, _, err := it.Next(); !errors.Is(err, errInjected) {
		t.Errorf("heap scan must surface the fault, got %v", err)
	}
	fd.failReads.Store(false)
	got, err := h.Get(rid)
	if err != nil || string(got) != "row" {
		t.Errorf("heap did not recover: %v %q", err, got)
	}
}

// TestHeapInsertWriteFaultKeepsCountersConsistent forces insertions through
// a pool small enough that every new page evicts a dirty one, then injects
// write faults: failed inserts must not bump the record count or lose
// acknowledged rows.
func TestHeapInsertWriteFaultKeepsCountersConsistent(t *testing.T) {
	fd := &faultDisk{inner: NewMemDisk()}
	pool := NewPool(2)
	pool.AttachDisk(1, fd)
	h, err := OpenHeap(pool, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 3000) // ~2 records per page
	var rids []RID
	for i := 0; i < 8; i++ {
		rec[0] = byte(i)
		rid, err := h.Insert(rec, nil)
		if err != nil {
			t.Fatalf("warm-up insert %d: %v", i, err)
		}
		rids = append(rids, rid)
	}
	before := h.NumRecords()

	fd.failWrites.Store(true)
	var failures int
	for i := 0; i < 8; i++ {
		rec[0] = byte(100 + i)
		if _, err := h.Insert(rec, nil); err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("insert error does not surface injected fault: %v", err)
			}
			failures++
		} else {
			before++ // insert that fit in a resident page legitimately succeeds
		}
	}
	if failures == 0 {
		t.Fatal("no insert hit the injected write fault")
	}
	if got := h.NumRecords(); got != before {
		t.Errorf("NumRecords()=%d after faults, want %d", got, before)
	}
	fd.failWrites.Store(false)
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil {
			t.Fatalf("acknowledged row %d lost after faults: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("acknowledged row %d corrupted", i)
		}
	}
	if _, err := h.Insert(rec, nil); err != nil {
		t.Errorf("heap not usable after fault cleared: %v", err)
	}
}

// TestHeapDeleteReadFault checks that a delete failing on a read fault
// leaves the record count and the record itself untouched.
func TestHeapDeleteReadFault(t *testing.T) {
	fd := &faultDisk{inner: NewMemDisk()}
	pool := NewPool(2)
	pool.AttachDisk(1, fd)
	h, err := OpenHeap(pool, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert([]byte("keep me"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := pool.DetachDisk(1); err != nil {
		t.Fatal(err)
	}
	pool.AttachDisk(1, fd)
	fd.failReads.Store(true)
	if err := h.Delete(rid); !errors.Is(err, errInjected) {
		t.Errorf("Delete must surface the injected fault, got %v", err)
	}
	if got := h.NumRecords(); got != 1 {
		t.Errorf("failed delete changed NumRecords to %d", got)
	}
	fd.failReads.Store(false)
	got, err := h.Get(rid)
	if err != nil || string(got) != "keep me" {
		t.Errorf("record damaged by failed delete: %v %q", err, got)
	}
}

// TestCrashDiskTornPageDetected verifies the harness's torn write is
// caught by the page checksum on the next fetch.
func TestCrashDiskTornPageDetected(t *testing.T) {
	mem := NewMemDisk()
	state := NewCrashState(2) // allocate + one full write allowed
	state.SetTear(true)
	cd := NewCrashDisk(mem, state)
	pool := NewPool(2)
	pool.AttachDisk(1, cd)
	h, err := pool.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	key := h.Key()
	for i := range h.Data() {
		h.Data()[i] = 0x5A
	}
	h.MarkDirty()
	h.Unpin()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Mutate and flush again: this write trips the fuse and tears.
	h, err = pool.Pin(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.Data() {
		h.Data()[i] = 0xA5
	}
	h.MarkDirty()
	h.Unpin()
	if err := pool.FlushAll(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn flush must report the crash, got %v", err)
	}
	// Reboot over the frozen disk: the torn page must fail its checksum.
	pool2 := NewPool(2)
	pool2.AttachDisk(1, mem)
	if _, err := pool2.Pin(key); err == nil {
		t.Fatal("torn page served as valid after reboot")
	}
}
