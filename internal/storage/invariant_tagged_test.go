//go:build muralinvariants

package storage

import (
	"strings"
	"testing"
)

// mustPanic runs f and asserts it panics with an invariant-violation
// message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected invariant panic containing %q, got none", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("expected invariant panic containing %q, got %v", want, r)
		}
	}()
	f()
}

func TestInvariantDoubleUnpinPanics(t *testing.T) {
	p := NewPool(4)
	p.AttachDisk(1, NewMemDisk())
	h, err := p.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	h.Unpin()
	mustPanic(t, "zero pins", h.Unpin)
}

func TestInvariantMutationWithoutMarkDirtyCaughtAtEviction(t *testing.T) {
	p := NewPool(1) // single frame: the next Pin must evict
	p.AttachDisk(1, NewMemDisk())

	h, err := p.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	h.MarkDirty()
	h.Unpin()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err) // page 0 now clean with a fresh checksum stamp
	}

	// Re-pin and scribble on the page without MarkDirty.
	h, err = p.Pin(PageKey{File: 1, Page: 0})
	if err != nil {
		t.Fatal(err)
	}
	h.Data()[10] ^= 0xFF
	h.Unpin()

	// Forcing an eviction of the clean-but-mutated frame must trip the
	// checksum invariant instead of silently dropping the change.
	mustPanic(t, "mutation without MarkDirty", func() {
		_, _ = p.NewPage(1)
	})
}

func TestInvariantWALFrameMonotonic(t *testing.T) {
	// The append path must keep offsets strictly increasing; a well-formed
	// sequence of batches must NOT trip it.
	log := NewMemLog()
	w := NewWAL(log)
	img := make([]byte, PageSize)
	for i := 0; i < 3; i++ {
		rec := []WALPageRec{{File: 1, Page: PageID(i), Image: img}}
		if err := appendBatch(w, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(w, []WALPageRec{{File: 1, Page: 0, Image: img}}); err != nil {
		t.Fatalf("append after truncate must restart cleanly: %v", err)
	}
}

func TestInvariantUnpinRunCountsPinnedFrames(t *testing.T) {
	p := NewPool(8)
	p.AttachDisk(1, NewMemDisk())
	for range 3 {
		h, err := p.NewPage(1)
		if err != nil {
			t.Fatal(err)
		}
		h.Unpin()
	}
	run := make([]*frame, 3)
	n, err := p.pinRun(1, 0, run)
	if err != nil || n != 3 {
		t.Fatalf("pinRun = %d, %v; want the 3 resident pages", n, err)
	}
	p.unpinRun(run[:n]) // a well-kept count does not trip
	if n, err = p.pinRun(1, 0, run); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.pinned++ // a pin transition the count missed
	p.mu.Unlock()
	mustPanic(t, "frames pinned", func() { p.unpinRun(run[:n]) })
}
