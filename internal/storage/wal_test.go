package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func walPage(file FileID, page PageID, fill byte) WALPageRec {
	img := make([]byte, PageSize)
	for i := range img {
		img[i] = fill
	}
	return WALPageRec{File: file, Page: page, Image: img}
}

// appendBatch logs a batch and waits for durability. A raw WAL holds no
// buffer-pool pages, so a failed commit has nothing to roll back before it
// releases the append gate.
func appendBatch(w *WAL, pages []WALPageRec) error {
	p, err := w.StageBatch(pages)
	if err != nil {
		return err
	}
	if err := p.Wait(); err != nil {
		p.Abandon()
		return err
	}
	return nil
}

// commitBatch seals the pool's open batch and waits for it to be durable.
func commitBatch(pool *Pool) error {
	s, err := pool.SealBatch()
	if err != nil {
		return err
	}
	return s.Wait()
}

func TestWALRoundTrip(t *testing.T) {
	log := NewMemLog()
	w := NewWAL(log)
	if err := appendBatch(w, []WALPageRec{walPage(1, 0, 0xAA), walPage(1, 1, 0xBB)}); err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(w, []WALPageRec{walPage(2, 5, 0xCC)}); err != nil {
		t.Fatal(err)
	}
	scan, err := ScanWAL(log)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn {
		t.Error("clean log reported torn")
	}
	if len(scan.Batches) != 2 {
		t.Fatalf("got %d batches, want 2", len(scan.Batches))
	}
	b0, b1 := scan.Batches[0], scan.Batches[1]
	if len(b0.Pages) != 2 || b0.Seq != 1 {
		t.Errorf("batch 0 malformed: %d pages, seq=%d", len(b0.Pages), b0.Seq)
	}
	if len(b1.Pages) != 1 || b1.Seq != 2 {
		t.Errorf("batch 1 malformed: %d pages, seq=%d", len(b1.Pages), b1.Seq)
	}
	if b0.Pages[0].Image[17] != 0xAA || b1.Pages[0].Image[17] != 0xCC {
		t.Error("page images corrupted in round trip")
	}
	if b1.Pages[0].File != 2 || b1.Pages[0].Page != 5 {
		t.Errorf("page address corrupted: file %d page %d", b1.Pages[0].File, b1.Pages[0].Page)
	}
	if scan.ValidBytes != log.Len() {
		t.Errorf("ValidBytes %d != log length %d", scan.ValidBytes, log.Len())
	}
}

// A log of format 2 may carry a catalog snapshot record, type 2: the scan
// refuses it with ErrFormat instead of taking it for a torn tail, which
// would truncate the batches behind it away.
func TestScanRefusesCatalogRecord(t *testing.T) {
	log := NewMemLog()
	w := NewWAL(log)
	if err := appendBatch(w, []WALPageRec{walPage(1, 0, 0xAA)}); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	_, err := w.frame([]byte{2, '{', '}'})
	w.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScanWAL(log); !errors.Is(err, ErrFormat) {
		t.Fatalf("ScanWAL = %v, want ErrFormat", err)
	}
}

func TestWALEmptyAndTruncated(t *testing.T) {
	log := NewMemLog()
	scan, err := ScanWAL(log)
	if err != nil || len(scan.Batches) != 0 || scan.Torn {
		t.Fatalf("empty log: %v %+v", err, scan)
	}
	w := NewWAL(log)
	if err := appendBatch(w, []WALPageRec{walPage(1, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if log.Len() != 0 {
		t.Errorf("truncate left %d bytes", log.Len())
	}
	scan, err = ScanWAL(log)
	if err != nil || len(scan.Batches) != 0 {
		t.Fatalf("truncated log: %v %+v", err, scan)
	}
}

// TestWALTornTail crashes the log at every byte prefix and verifies the
// scan yields exactly the batches whose commit record fully survived —
// never an error, never a partial batch.
func TestWALTornTail(t *testing.T) {
	full := NewMemLog()
	w := NewWAL(full)
	commitEnds := []int64{}
	for i := 0; i < 4; i++ {
		if err := appendBatch(w, []WALPageRec{walPage(1, PageID(i), byte(i+1))}); err != nil {
			t.Fatal(err)
		}
		commitEnds = append(commitEnds, full.Len())
	}
	for cut := int64(0); cut <= full.Len(); cut++ {
		torn := NewMemLog()
		torn.buf = append([]byte(nil), full.buf[:cut]...)
		scan, err := ScanWAL(torn)
		if err != nil {
			t.Fatalf("cut %d: scan error %v", cut, err)
		}
		wantBatches := 0
		for _, end := range commitEnds {
			if cut >= end {
				wantBatches++
			}
		}
		if len(scan.Batches) != wantBatches {
			t.Fatalf("cut %d: got %d batches, want %d", cut, len(scan.Batches), wantBatches)
		}
		for i, b := range scan.Batches {
			if len(b.Pages) != 1 || b.Pages[0].Image[0] != byte(i+1) {
				t.Fatalf("cut %d: batch %d corrupted", cut, i)
			}
		}
	}
}

// TestWALBitFlip corrupts a single byte of the final record and verifies
// recovery stops at the last intact commit.
func TestWALBitFlip(t *testing.T) {
	log := NewMemLog()
	w := NewWAL(log)
	for i := 0; i < 3; i++ {
		if err := appendBatch(w, []WALPageRec{walPage(1, PageID(i), byte(i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	secondCommit := int64(0)
	{
		scan, _ := ScanWAL(log)
		if len(scan.Batches) != 3 {
			t.Fatalf("setup: %d batches", len(scan.Batches))
		}
		// Find where batch 2 ends by scanning a prefix-truncated copy.
		for cut := log.Len(); cut > 0; cut-- {
			c := NewMemLog()
			c.buf = append([]byte(nil), log.buf[:cut]...)
			s, _ := ScanWAL(c)
			if len(s.Batches) == 2 {
				secondCommit = s.ValidBytes
				break
			}
		}
	}
	// Flip one bit inside the last batch's page image.
	log.buf[secondCommit+walFrameHeader+100] ^= 0x40
	scan, err := ScanWAL(log)
	if err != nil {
		t.Fatal(err)
	}
	if !scan.Torn {
		t.Error("bit flip not detected as torn")
	}
	if len(scan.Batches) != 2 {
		t.Fatalf("got %d batches after bit flip, want 2", len(scan.Batches))
	}
	if scan.ValidBytes != secondCommit {
		t.Errorf("ValidBytes %d, want %d", scan.ValidBytes, secondCommit)
	}
}

func TestWALGarbageLengthField(t *testing.T) {
	log := NewMemLog()
	w := NewWAL(log)
	if err := appendBatch(w, []WALPageRec{walPage(1, 0, 7)}); err != nil {
		t.Fatal(err)
	}
	// Append a frame header claiming an absurd payload size.
	head := []byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4}
	if _, err := log.WriteAt(head, log.Len()); err != nil {
		t.Fatal(err)
	}
	scan, err := ScanWAL(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Batches) != 1 || !scan.Torn {
		t.Errorf("garbage length: %d batches torn=%v", len(scan.Batches), scan.Torn)
	}
}

// TestWALReadLatestImage exercises the abort path's committed-image lookup.
func TestWALReadLatestImage(t *testing.T) {
	log := NewMemLog()
	w := NewWAL(log)
	key := PageKey{File: 3, Page: 9}
	buf := make([]byte, PageSize)
	if ok, err := w.ReadLatestImage(key, buf); err != nil || ok {
		t.Fatalf("image before any commit: ok=%v err=%v", ok, err)
	}
	if err := appendBatch(w, []WALPageRec{walPage(3, 9, 0x11)}); err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(w, []WALPageRec{walPage(3, 9, 0x22)}); err != nil {
		t.Fatal(err)
	}
	ok, err := w.ReadLatestImage(key, buf)
	if err != nil || !ok {
		t.Fatalf("latest image: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(buf, walPage(3, 9, 0x22).Image) {
		t.Error("latest image is not the most recent commit")
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := w.ReadLatestImage(key, buf); ok {
		t.Error("image survived truncate")
	}
}

// TestWALConcurrentAppendAndCheckpoint drives concurrent batch appends and
// truncations; under -race this validates the locking of the WAL itself,
// and the final scan validates that frames never interleave.
func TestWALConcurrentAppendAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := NewWAL(f)
	const writers = 4
	const batchesPerWriter = 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < batchesPerWriter; i++ {
				pages := []WALPageRec{walPage(FileID(g+1), PageID(i), byte(g+1))}
				if err := appendBatch(w, pages); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := w.Truncate(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	scan, err := ScanWAL(f)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn {
		t.Error("concurrent appends produced a torn log")
	}
	for _, b := range scan.Batches {
		if len(b.Pages) != 1 {
			t.Fatalf("interleaved batch: %d pages", len(b.Pages))
		}
		if b.Pages[0].Image[0] != byte(b.Pages[0].File) {
			t.Fatal("batch pages from different writers interleaved")
		}
	}
}

// TestPoolBatchNoSteal verifies the WAL rule: pages dirtied by an open
// batch never reach the data file, even under eviction pressure.
func TestPoolBatchNoSteal(t *testing.T) {
	disk := NewMemDisk()
	pool := NewPool(4)
	pool.AttachDisk(1, disk)
	pool.SetWAL(NewWAL(NewMemLog()))
	if err := pool.BeginBatch(); err != nil {
		t.Fatal(err)
	}
	// Dirty two pages inside the batch.
	var keys []PageKey
	for i := 0; i < 2; i++ {
		h, err := pool.NewPage(1)
		if err != nil {
			t.Fatal(err)
		}
		h.Data()[0] = byte(i + 1)
		h.MarkDirty()
		keys = append(keys, h.Key())
		h.Unpin()
	}
	// Evict everything evictable; batch pages must survive in memory and
	// stay off the disk.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for i, k := range keys {
		if err := disk.ReadPage(k.Page, buf); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Fatalf("uncommitted page %d leaked to disk", i)
			}
		}
	}
	if err := commitBatch(pool); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := disk.ReadPage(keys[0].Page, buf); err != nil {
		t.Fatal(err)
	}
	if buf[pageChecksumSize] != 1 {
		t.Error("committed page did not reach disk after flush")
	}
}

// TestPoolAbortBatchRestoresCommittedImages checks that aborting a batch
// rolls pages back to their last committed content, including content that
// had never been written back to the data file.
func TestPoolAbortBatchRestoresCommittedImages(t *testing.T) {
	disk := NewMemDisk()
	pool := NewPool(8)
	pool.AttachDisk(1, disk)
	pool.SetWAL(NewWAL(NewMemLog()))

	// Batch 1: commit a page with known content (not flushed to disk).
	if err := pool.BeginBatch(); err != nil {
		t.Fatal(err)
	}
	h, err := pool.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	key := h.Key()
	copy(h.Data(), "committed")
	h.MarkDirty()
	h.Unpin()
	if err := commitBatch(pool); err != nil {
		t.Fatal(err)
	}

	// Batch 2: scribble over it, then abort.
	if err := pool.BeginBatch(); err != nil {
		t.Fatal(err)
	}
	h, err = pool.Pin(key)
	if err != nil {
		t.Fatal(err)
	}
	copy(h.Data(), "uncommitted")
	h.MarkDirty()
	h.Unpin()
	if err := pool.AbortBatch(); err != nil {
		t.Fatal(err)
	}

	h, err = pool.Pin(key)
	if err != nil {
		t.Fatal(err)
	}
	got := string(h.Data()[:9])
	h.Unpin()
	if got != "committed" {
		t.Errorf("aborted page reads %q, want committed content", got)
	}
}

// TestPoolAbortBatchDropsFreshPages checks that pages with no committed
// image are dropped so the next read sees the data file's content.
func TestPoolAbortBatchDropsFreshPages(t *testing.T) {
	disk := NewMemDisk()
	pool := NewPool(4)
	pool.AttachDisk(1, disk)
	pool.SetWAL(NewWAL(NewMemLog()))
	if err := pool.BeginBatch(); err != nil {
		t.Fatal(err)
	}
	h, err := pool.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	key := h.Key()
	copy(h.Data(), "phantom")
	h.MarkDirty()
	h.Unpin()
	if err := pool.AbortBatch(); err != nil {
		t.Fatal(err)
	}
	h, err = pool.Pin(key)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unpin()
	for _, b := range h.Data()[:7] {
		if b != 0 {
			t.Fatal("aborted fresh page kept uncommitted content")
		}
	}
}

func TestFileDiskShortReadZeroFills(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "short.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = 0xEE
	}
	if err := d.WritePage(id, page); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// Lose the file's tail (as a crashed filesystem might), then read with
	// a poisoned buffer: the missing range must come back zeroed, not as
	// stale caller bytes.
	if err := os.Truncate(path, PageSize/2); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = 0x55
	}
	if err := d.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < PageSize/2; i++ {
		if buf[i] != 0xEE {
			t.Fatalf("byte %d: surviving prefix corrupted", i)
		}
	}
	for i := PageSize / 2; i < PageSize; i++ {
		if buf[i] != 0 {
			t.Fatalf("byte %d = %#x: stale bytes leaked through short read", i, buf[i])
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
