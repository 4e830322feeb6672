package storage

import (
	"fmt"
	"testing"
)

// drainRange collects the record payloads of one ScanRange morsel.
func drainRange(t *testing.T, it *Iter) []string {
	t.Helper()
	var out []string
	for {
		_, rec, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, string(rec))
	}
}

// The union of disjoint page-range scans must equal the full scan: the
// exactly-once guarantee a morsel-parallel table scan rests on.
func TestHeapScanRangePartitionsCoverFullScan(t *testing.T) {
	pool, file := newTestPool(t, 16)
	h, err := OpenHeap(pool, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		rec := fmt.Sprintf("rec-%04d-%s", i, string(make([]byte, 48)))
		if _, err := h.Insert([]byte(rec), nil); err != nil {
			t.Fatal(err)
		}
	}
	np := h.NumPages()
	if np < 4 {
		t.Fatalf("need a multi-page heap, got %d pages", np)
	}

	seen := make(map[string]int, n)
	const chunk = 3
	for lo := PageID(0); lo < np; lo += chunk {
		for _, rec := range drainRange(t, h.ScanRange(lo, lo+chunk)) {
			seen[rec]++
		}
	}
	if len(seen) != n {
		t.Fatalf("ranges covered %d distinct records, want %d", len(seen), n)
	}
	for rec, c := range seen {
		if c != 1 {
			t.Fatalf("record %q seen %d times, want exactly once", rec, c)
		}
	}
}

// Bounds beyond the heap clamp rather than fail, so a worker partitioning a
// stale page count stays safe.
func TestHeapScanRangeClampsBounds(t *testing.T) {
	pool, file := newTestPool(t, 8)
	h, err := OpenHeap(pool, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("r%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	np := h.NumPages()
	if got := drainRange(t, h.ScanRange(np+5, np+9)); len(got) != 0 {
		t.Errorf("range past the heap returned %d records, want 0", len(got))
	}
	if got := drainRange(t, h.ScanRange(0, np+100)); len(got) != 10 {
		t.Errorf("over-wide range returned %d records, want all 10", len(got))
	}
	if got := drainRange(t, h.ScanRange(2, 1)); len(got) != 0 {
		t.Errorf("inverted range returned %d records, want 0", len(got))
	}
}

// ScanRange skips records deleted before the scan started.
func TestHeapScanRangeSkipsDeleted(t *testing.T) {
	pool, file := newTestPool(t, 8)
	h, err := OpenHeap(pool, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 6; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("r%d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := h.Delete(rids[2]); err != nil {
		t.Fatal(err)
	}
	got := drainRange(t, h.ScanRange(0, h.NumPages()))
	if len(got) != 5 {
		t.Fatalf("got %d records after delete, want 5: %v", len(got), got)
	}
	for _, rec := range got {
		if rec == "r2" {
			t.Error("deleted record r2 still visible to ScanRange")
		}
	}
}
