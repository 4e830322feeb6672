package storage

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedLog blocks the next Sync after arm() until the test releases it, so
// the test can deterministically stage more batches behind an in-flight
// fsync.
type gatedLog struct {
	*MemLog
	armed       atomic.Bool
	gate        chan struct{}
	syncStarted chan struct{}
}

func (g *gatedLog) arm() {
	g.gate = make(chan struct{})
	g.syncStarted = make(chan struct{})
	g.armed.Store(true)
}

func (g *gatedLog) Sync() error {
	if g.armed.CompareAndSwap(true, false) {
		close(g.syncStarted)
		<-g.gate
	}
	return g.MemLog.Sync()
}

// Concurrent commits staged behind one in-flight fsync must all retire on
// the NEXT fsync: 8 commits, exactly 2 syncs (the blocked leader's plus one
// group sync for the 7 followers).
func TestWALGroupCommitSharesSyncs(t *testing.T) {
	mem := NewMemLog()
	g := &gatedLog{MemLog: mem}
	g.arm()
	w := NewWAL(g)

	const batches = 8
	errs := make([]error, batches)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[0] = appendBatch(w, []WALPageRec{walPage(1, 0, 1)})
	}()
	<-g.syncStarted
	// The leader is inside Sync with exactly one batch staged.
	oneBatch := w.Size()
	for i := 1; i < batches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = appendBatch(w, []WALPageRec{walPage(1, PageID(i), byte(i))})
		}(i)
	}
	// Wait until every follower has staged its batch in the log.
	deadline := time.Now().Add(5 * time.Second)
	for w.Size() != oneBatch*batches {
		if time.Now().After(deadline) {
			t.Fatalf("followers never staged: log at %d bytes, want %d", w.Size(), oneBatch*batches)
		}
		time.Sleep(time.Millisecond)
	}
	close(g.gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}

	stats := w.Stats()
	if stats.Commits != batches {
		t.Fatalf("Commits = %d, want %d", stats.Commits, batches)
	}
	if stats.Syncs != 2 {
		t.Errorf("Syncs = %d, want 2 (leader's + one group sync for the followers)", stats.Syncs)
	}
	if stats.Syncs >= stats.Commits {
		t.Errorf("group commit not engaged: Syncs %d >= Commits %d", stats.Syncs, stats.Commits)
	}
	scan, err := ScanWAL(mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Batches) != batches {
		t.Fatalf("scan found %d batches, want %d", len(scan.Batches), batches)
	}
}

type failableLog struct {
	*MemLog
	fail      atomic.Bool // Sync fails
	failWrite atomic.Bool // WriteAt fails
}

var (
	errInjectedSync  = errors.New("injected sync failure")
	errInjectedWrite = errors.New("injected write failure")
)

func (f *failableLog) Sync() error {
	if f.fail.Load() {
		return errInjectedSync
	}
	return f.MemLog.Sync()
}

func (f *failableLog) WriteAt(p []byte, off int64) (int, error) {
	if f.failWrite.Load() {
		return 0, errInjectedWrite
	}
	return f.MemLog.WriteAt(p, off)
}

// A failed group sync must REWIND the log: the failed batch's frames
// (commit record included) are truncated away, so a later successful sync
// can never make a batch durable whose caller was told it failed.
func TestWALSyncFailureRewindsLog(t *testing.T) {
	fl := &failableLog{MemLog: NewMemLog()}
	w := NewWAL(fl)

	if err := appendBatch(w, []WALPageRec{walPage(1, 0, 0xAA)}); err != nil {
		t.Fatal(err)
	}
	durable := w.Size()

	fl.fail.Store(true)
	if err := appendBatch(w, []WALPageRec{walPage(1, 1, 0xBB)}); err == nil {
		t.Fatal("commit succeeded although sync failed")
	}
	fl.fail.Store(false)

	if got := w.Size(); got != durable {
		t.Fatalf("log not rewound after sync failure: %d bytes, want %d", got, durable)
	}
	// Appends must resume (appendBatch abandons its failed commit itself).
	if err := appendBatch(w, []WALPageRec{walPage(1, 2, 0xCC)}); err != nil {
		t.Fatalf("append after recovered sync failure: %v", err)
	}
	scan, err := ScanWAL(fl.MemLog)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Batches) != 2 {
		t.Fatalf("scan found %d batches, want 2 (the failed one must not appear)", len(scan.Batches))
	}
	for _, b := range scan.Batches {
		for _, p := range b.Pages {
			if p.Page == 1 {
				t.Fatal("failed batch's page image survived in the log")
			}
		}
	}
	// The rolled-back page has no surviving logged image.
	buf := make([]byte, PageSize)
	if ok, err := w.ReadLatestImage(PageKey{File: 1, Page: 1}, buf); err != nil || ok {
		t.Fatalf("ReadLatestImage for failed page: ok=%v err=%v, want absent", ok, err)
	}
}

// After a failed group sync, StageBatch must refuse new appends until every
// failed committer has abandoned — otherwise a fresh commit could capture
// not-yet-rolled-back page content.
func TestWALStageBlockedUntilAbandon(t *testing.T) {
	fl := &failableLog{MemLog: NewMemLog()}
	w := NewWAL(fl)

	p, err := w.StageBatch([]WALPageRec{walPage(1, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	fl.fail.Store(true)
	if err := p.Wait(); err == nil {
		t.Fatal("Wait succeeded although sync failed")
	}
	fl.fail.Store(false)

	if _, err := w.StageBatch([]WALPageRec{walPage(1, 1, 2)}); err == nil {
		t.Fatal("StageBatch accepted an append while a failed commit was still un-abandoned")
	}
	p.Abandon()
	p2, err := w.StageBatch([]WALPageRec{walPage(1, 1, 2)})
	if err != nil {
		t.Fatalf("StageBatch after Abandon: %v", err)
	}
	if err := p2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// A batch that fails to stage (SealBatch) or to become durable (Wait) comes
// back with the log's error and its page already at the committed image,
// its hold released and the append gate open: the next Seal + Wait commits.
func TestFailedSealOrWaitRollsBack(t *testing.T) {
	fl := &failableLog{MemLog: NewMemLog()}
	pool := NewPool(8)
	pool.AttachDisk(1, NewMemDisk())
	pool.SetWAL(NewWAL(fl))
	h, err := pool.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	key := h.Key()
	h.Unpin()
	// write dirties the page in a new batch.
	write := func(content string) {
		t.Helper()
		if err := pool.BeginBatch(); err != nil {
			t.Fatal(err)
		}
		h, err := pool.Pin(key)
		if err != nil {
			t.Fatal(err)
		}
		copy(h.Data(), content)
		h.MarkDirty()
		h.Unpin()
	}
	read := func() string {
		t.Helper()
		h, err := pool.Pin(key)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Unpin()
		return string(h.Data()[:9])
	}

	write("committed")
	if err := commitBatch(pool); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		fail *atomic.Bool
		err  error
	}{{&fl.failWrite, errInjectedWrite}, {&fl.fail, errInjectedSync}} {
		write("scribbled")
		f.fail.Store(true)
		err := commitBatch(pool)
		f.fail.Store(false)
		if !errors.Is(err, f.err) {
			t.Fatalf("commit = %v, want %v", err, f.err)
		}
		if got := read(); got != "committed" {
			t.Errorf("page after %v reads %q, want the committed image", f.err, got)
		}
		pool.mu.Lock()
		sealed, held := pool.sealed, len(pool.holds)
		pool.mu.Unlock()
		if sealed != 0 || held != 0 {
			t.Errorf("after %v: %d sealed batches, %d held pages, want none", f.err, sealed, held)
		}
	}

	write("next one!")
	if err := commitBatch(pool); err != nil {
		t.Fatalf("commit after the failed ones: %v", err)
	}
	if got := read(); got != "next one!" {
		t.Errorf("page after the next commit reads %q", got)
	}
}

// While a sealed batch awaits its group sync, AbortBatch of a LATER batch
// touching the same page must restore the sealed (staged) image, not the
// older durable one — otherwise the abort would wipe out a commit that is
// about to succeed.
func TestWALReadLatestImageServesStaged(t *testing.T) {
	g := &gatedLog{MemLog: NewMemLog()}
	w := NewWAL(g)

	if err := appendBatch(w, []WALPageRec{walPage(1, 0, 0xAA)}); err != nil {
		t.Fatal(err)
	}
	g.arm()

	done := make(chan error, 1)
	go func() {
		done <- appendBatch(w, []WALPageRec{walPage(1, 0, 0xBB)})
	}()
	<-g.syncStarted
	// The 0xBB image is staged but not durable. The latest logged image for
	// the page must already be 0xBB: a batch rolling back now would restore
	// on top of the sealed change, and the sealed committer either succeeds
	// (0xBB stands) or fails and restores its own pages in turn.
	buf := make([]byte, PageSize)
	ok, err := w.ReadLatestImage(PageKey{File: 1, Page: 0}, buf)
	if err != nil || !ok {
		t.Fatalf("ReadLatestImage: ok=%v err=%v", ok, err)
	}
	if buf[17] != 0xBB {
		t.Fatalf("ReadLatestImage served the stale durable image (0x%02X), want staged 0xBB", buf[17])
	}
	close(g.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
