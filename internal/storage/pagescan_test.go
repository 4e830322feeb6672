package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// drainPages collects every record seen through NextPage, copying since the
// records a page view returns alias the pinned page.
func drainPages(t *testing.T, it *Iter) []string {
	t.Helper()
	var out []string
	for {
		more, err := it.NextPage(func(pg Page) error {
			out = appendLive(out, pg)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			return out
		}
	}
}

// appendLive appends a copy of every live record of pg to out.
func appendLive(out []string, pg Page) []string {
	for i := range pg.Len() {
		if rec, live := pg.Record(i); live {
			out = append(out, string(rec))
		}
	}
	return out
}

// NextPage must see exactly the records Next sees, in the same order —
// including skipping deleted slots and respecting ScanRange bounds.
func TestHeapNextPageMatchesNext(t *testing.T) {
	pool, file := newTestPool(t, 16)
	h, err := OpenHeap(pool, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	var rids []RID
	for i := 0; i < n; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("rec-%04d-%s", i, string(make([]byte, 120)))), nil)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for _, i := range []int{0, 7, 150, n - 1} {
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	np := h.NumPages()
	if np < 3 {
		t.Fatalf("need a multi-page heap, got %d pages", np)
	}

	want := drainRange(t, h.Scan())
	got := drainPages(t, h.Scan())
	if len(got) != len(want) {
		t.Fatalf("NextPage saw %d records, Next saw %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: NextPage %q, Next %q", i, got[i], want[i])
		}
	}

	// A page-range morsel through NextPage equals the same morsel via Next.
	wantM := drainRange(t, h.ScanRange(1, 3))
	gotM := drainPages(t, h.ScanRange(1, 3))
	if fmt.Sprint(gotM) != fmt.Sprint(wantM) {
		t.Errorf("morsel mismatch: NextPage %d records, Next %d", len(gotM), len(wantM))
	}

	// Mixed: the page NextPage hands over after two Nexts starts where they
	// stopped.
	it := h.Scan()
	for range 2 {
		if _, _, ok, err := it.Next(); err != nil || !ok {
			t.Fatalf("Next = %v, %v", ok, err)
		}
	}
	if rest := drainPages(t, it); fmt.Sprint(rest) != fmt.Sprint(want[2:]) {
		t.Errorf("NextPage after two Nexts saw %d records, want the %d after them", len(rest), len(want)-2)
	}

	// A page laid out in memory reads back what it holds.
	pg := NewPage(0)
	for _, rec := range []string{"a", "", "ccc"} {
		if !pg.Add([]byte(rec), nil) {
			t.Fatalf("Add(%q) to a page of %d records refused", rec, pg.Len())
		}
	}
	if got := appendLive(nil, pg); pg.Len() != 3 || fmt.Sprint(got) != fmt.Sprint([]string{"a", "", "ccc"}) {
		t.Errorf("NewPage read back %q", got)
	}
	// A record that would overflow a heap page beside them is refused; an
	// empty page takes it.
	if big := make([]byte, MaxRecordSize(0)); pg.Add(big, nil) || pg.Len() != 3 {
		t.Errorf("a full-page record added beside %d others", pg.Len())
	} else if one := NewPage(0); !one.Add(big, nil) {
		t.Error("an empty page refused a record of the heap's limit")
	}
}

// An fn error surfaces verbatim and leaves no pin behind (the scan can be
// abandoned safely).
func TestHeapNextPageCallbackError(t *testing.T) {
	pool, file := newTestPool(t, 8)
	h, err := OpenHeap(pool, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("r%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	it := h.Scan()
	more, err := it.NextPage(func(Page) error { return boom })
	if !errors.Is(err, boom) || !more {
		t.Fatalf("NextPage = (%v, %v), want (true, boom)", more, err)
	}
	// The page is unpinned: a fresh full scan still works.
	if got := drainPages(t, h.Scan()); len(got) != 5 {
		t.Errorf("follow-up scan saw %d records, want 5", len(got))
	}
}

// NextPage on an exhausted or empty scan reports more=false without calling
// fn.
func TestHeapNextPageExhausted(t *testing.T) {
	pool, file := newTestPool(t, 8)
	h, err := OpenHeap(pool, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	it := h.Scan()
	more, err := it.NextPage(func(Page) error {
		t.Error("fn called on an empty heap")
		return nil
	})
	if more || err != nil {
		t.Fatalf("empty heap NextPage = (%v, %v), want (false, nil)", more, err)
	}
}

// A scan reading the heap's last page while an INSERT writes into it must
// see whole records only: NextPage (its page view included) and Next read a page
// under the heap's read lock, which Insert's write lock excludes. Under
// -race an unlocked read of the page is a reported data race.
func TestHeapScanLastPageWhileInserting(t *testing.T) {
	pool, file := newTestPool(t, 8)
	h, err := OpenHeap(pool, file, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(i int) []byte { return []byte(fmt.Sprintf("rec-%05d", i)) }
	if _, err := h.Insert(rec(0), nil); err != nil {
		t.Fatal(err)
	}
	const inserts = 300 // about 4 KiB: the writes stay on page 0
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i < inserts; i++ {
			if _, err := h.Insert(rec(i), nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	check := func(r []byte) error {
		var i int
		if _, err := fmt.Sscanf(string(r), "rec-%05d", &i); err != nil || string(rec(i)) != string(r) {
			return fmt.Errorf("torn record %q", r)
		}
		return nil
	}
	for scanning := true; scanning; {
		select {
		case <-done:
			scanning = false // one more pass over the finished page
		default:
		}
		last := h.NumPages() - 1
		checkPage := func(pg Page) error {
			for i := range pg.Len() {
				if r, live := pg.Record(i); live {
					if err := check(r); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if _, err := h.ScanRange(last, last+1).NextPage(checkPage); err != nil {
			t.Fatal(err)
		}
		it := h.ScanRange(last, last+1)
		for {
			_, r, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if err := check(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	if got := drainPages(t, h.Scan()); len(got) != inserts {
		t.Errorf("scan after the inserts saw %d records, want %d", len(got), inserts)
	}
}
