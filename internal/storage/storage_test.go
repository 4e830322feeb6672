package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func newTestPool(t *testing.T, frames int) (*Pool, FileID) {
	t.Helper()
	pool := NewPool(frames)
	pool.AttachDisk(1, NewMemDisk())
	return pool, FileID(1)
}

func TestMemDiskRoundTrip(t *testing.T) {
	d := NewMemDisk()
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	copy(buf, "hello page")
	if err := d.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Error("page content mismatch")
	}
	if err := d.ReadPage(99, got); err == nil {
		t.Error("read beyond end must fail")
	}
	if err := d.WritePage(99, buf); err == nil {
		t.Error("write beyond end must fail")
	}
}

func TestFileDiskPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	copy(buf[100:], "persisted")
	if err := d.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumPages() != 1 {
		t.Fatalf("NumPages = %d, want 1", d2.NumPages())
	}
	got := make([]byte, PageSize)
	if err := d2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if string(got[100:109]) != "persisted" {
		t.Error("content not persisted")
	}
}

func TestPoolPinMissAndHit(t *testing.T) {
	pool, file := newTestPool(t, 4)
	h, err := pool.NewPage(file)
	if err != nil {
		t.Fatal(err)
	}
	key := h.Key()
	copy(h.Data(), "payload")
	h.MarkDirty()
	h.Unpin()

	h2, err := pool.Pin(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(h2.Data()[:7]) != "payload" {
		t.Error("payload lost on re-pin")
	}
	h2.Unpin()
	st := pool.Stats()
	if st.Hits == 0 {
		t.Error("expected a buffer hit")
	}
}

func TestPoolEvictionWritesBack(t *testing.T) {
	pool, file := newTestPool(t, 2)
	// Create three pages through a two-frame pool; the first must be
	// evicted and written back, then read back intact.
	keys := make([]PageKey, 3)
	for i := 0; i < 3; i++ {
		h, err := pool.NewPage(file)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = h.Key()
		h.Data()[0] = byte(i + 1)
		h.MarkDirty()
		h.Unpin()
	}
	h, err := pool.Pin(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if h.Data()[0] != 1 {
		t.Errorf("evicted page content lost: %d", h.Data()[0])
	}
	h.Unpin()
	if st := pool.Stats(); st.Evictions == 0 || st.DiskWrites == 0 {
		t.Errorf("expected evictions and writebacks, got %+v", st)
	}
}

func TestPoolExhaustion(t *testing.T) {
	pool, file := newTestPool(t, 2)
	h1, err := pool.NewPage(file)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := pool.NewPage(file)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.NewPage(file); err == nil {
		t.Error("expected pool exhaustion with all frames pinned")
	}
	h1.Unpin()
	h2.Unpin()
	if _, err := pool.NewPage(file); err != nil {
		t.Errorf("pool must recover after unpin: %v", err)
	}
}

func TestPoolChecksumDetectsCorruption(t *testing.T) {
	disk := NewMemDisk()
	pool := NewPool(2)
	pool.AttachDisk(7, disk)
	h, err := pool.NewPage(7)
	if err != nil {
		t.Fatal(err)
	}
	key := h.Key()
	copy(h.Data(), "important data")
	h.MarkDirty()
	h.Unpin()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the page behind the pool's back, then force a re-fetch.
	if err := pool.DetachDisk(7); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, PageSize)
	if err := disk.ReadPage(key.Page, raw); err != nil {
		t.Fatal(err)
	}
	raw[512] ^= 0xFF
	if err := disk.WritePage(key.Page, raw); err != nil {
		t.Fatal(err)
	}
	pool.AttachDisk(7, disk)
	if _, err := pool.Pin(key); err == nil {
		t.Error("checksum verification must reject a corrupted page")
	}
}

func TestPoolUnattachedFile(t *testing.T) {
	pool := NewPool(2)
	if _, err := pool.Pin(PageKey{File: 42, Page: 0}); err == nil {
		t.Error("pin on unattached file must fail")
	}
	if _, err := pool.NewPage(42); err == nil {
		t.Error("new page on unattached file must fail")
	}
	if _, err := pool.DiskPages(42); err == nil {
		t.Error("disk pages on unattached file must fail")
	}
}

func TestHeapInsertGet(t *testing.T) {
	pool, file := newTestPool(t, 8)
	h, err := OpenHeap(pool, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert([]byte("record one"), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "record one" {
		t.Errorf("Get = %q", got)
	}
	if h.NumRecords() != 1 {
		t.Errorf("NumRecords = %d", h.NumRecords())
	}
}

func TestHeapRejectOversizeRecord(t *testing.T) {
	pool, file := newTestPool(t, 8)
	h, err := OpenHeap(pool, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Insert(make([]byte, MaxRecordSize(0)+1), nil); err == nil {
		t.Error("oversize record must be rejected")
	}
	if _, err := h.Insert(make([]byte, MaxRecordSize(0)), nil); err != nil {
		t.Errorf("max-size record must fit: %v", err)
	}
}

func TestHeapDelete(t *testing.T) {
	pool, file := newTestPool(t, 8)
	h, err := OpenHeap(pool, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert([]byte("doomed"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); err == nil {
		t.Error("Get after Delete must fail")
	}
	if err := h.Delete(rid); err == nil {
		t.Error("double Delete must fail")
	}
	if h.NumRecords() != 0 {
		t.Errorf("NumRecords = %d after delete", h.NumRecords())
	}
	// The deleted record must not appear in scans.
	it := h.Scan()
	if _, _, ok, _ := it.Next(); ok {
		t.Error("scan returned deleted record")
	}
}

func TestHeapMultiPageScan(t *testing.T) {
	pool, file := newTestPool(t, 16)
	h, err := OpenHeap(pool, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	want := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		rec := fmt.Sprintf("record-%05d-%s", i, string(make([]byte, 64)))
		if _, err := h.Insert([]byte(rec), nil); err != nil {
			t.Fatal(err)
		}
		want[rec] = true
	}
	if h.NumPages() < 2 {
		t.Fatalf("expected multi-page heap, got %d pages", h.NumPages())
	}
	it := h.Scan()
	count := 0
	for {
		_, rec, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if !want[string(rec)] {
			t.Fatalf("unexpected record %q", rec)
		}
		delete(want, string(rec))
		count++
	}
	if count != n {
		t.Errorf("scan returned %d records, want %d", count, n)
	}
}

func TestHeapReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.db")
	disk, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(8)
	pool.AttachDisk(3, disk)
	h, err := OpenHeap(pool, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 100; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("persist-%d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := pool.DetachDisk(3); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	disk2, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	pool2 := NewPool(8)
	pool2.AttachDisk(3, disk2)
	h2, err := OpenHeap(pool2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumRecords() != 100 {
		t.Fatalf("reopened NumRecords = %d, want 100", h2.NumRecords())
	}
	got, err := h2.Get(rids[42])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "persist-42" {
		t.Errorf("reopened Get = %q", got)
	}
}

func TestHeapGetErrors(t *testing.T) {
	pool, file := newTestPool(t, 4)
	h, err := OpenHeap(pool, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	rid, _ := h.Insert([]byte("x"), nil)
	if _, err := h.Get(RID{Page: rid.Page, Slot: 99}); err == nil {
		t.Error("bad slot must fail")
	}
	if _, err := h.Get(RID{Page: 999, Slot: 0}); err == nil {
		t.Error("bad page must fail")
	}
	if err := h.Delete(RID{Page: rid.Page, Slot: 99}); err == nil {
		t.Error("delete bad slot must fail")
	}
}

// TestHeapPropertyRandomOps drives random inserts/deletes against a model
// map and checks the heap agrees with the model after every batch.
func TestHeapPropertyRandomOps(t *testing.T) {
	pool, file := newTestPool(t, 32)
	h, err := OpenHeap(pool, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	model := make(map[RID]string)
	var live []RID
	for step := 0; step < 3000; step++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			rec := fmt.Sprintf("v%d-%d", step, rng.Int63())
			rid, err := h.Insert([]byte(rec), nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := model[rid]; dup {
				t.Fatalf("step %d: RID %v reused while live", step, rid)
			}
			model[rid] = rec
			live = append(live, rid)
		} else {
			i := rng.Intn(len(live))
			rid := live[i]
			if err := h.Delete(rid); err != nil {
				t.Fatal(err)
			}
			delete(model, rid)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if int(h.NumRecords()) != len(model) {
		t.Fatalf("NumRecords = %d, model has %d", h.NumRecords(), len(model))
	}
	seen := 0
	it := h.Scan()
	for {
		rid, rec, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		want, exists := model[rid]
		if !exists {
			t.Fatalf("scan returned dead RID %v", rid)
		}
		if want != string(rec) {
			t.Fatalf("RID %v: got %q want %q", rid, rec, want)
		}
		seen++
	}
	if seen != len(model) {
		t.Errorf("scan saw %d records, model has %d", seen, len(model))
	}
}

func TestChecksumHelpersProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		page := make([]byte, PageSize)
		rng.Read(page[pageChecksumSize:])
		stampChecksum(page)
		return verifyChecksum(page) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHeapInsert(b *testing.B) {
	pool := NewPool(64)
	pool.AttachDisk(1, NewMemDisk())
	h, err := OpenHeap(pool, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	rec := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(rec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeapScan(b *testing.B) {
	pool := NewPool(256)
	pool.AttachDisk(1, NewMemDisk())
	h, err := OpenHeap(pool, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	rec := make([]byte, 100)
	for i := 0; i < 10000; i++ {
		if _, err := h.Insert(rec, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := h.Scan()
		for {
			_, _, ok, err := it.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
}
