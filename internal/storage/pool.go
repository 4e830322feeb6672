package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"github.com/mural-db/mural/internal/invariant"
)

// FileID identifies one disk file attached to a buffer pool. The catalog
// assigns stable FileIDs to tables and indexes.
type FileID uint32

// PageKey addresses one page across all attached files.
type PageKey struct {
	File FileID
	Page PageID
}

// PoolStats counts buffer pool traffic. DiskReads/DiskWrites are the
// physical I/O numbers that the cost-model validation experiment (Figure 6)
// correlates against predicted page counts.
type PoolStats struct {
	Hits       uint64
	Misses     uint64
	DiskReads  uint64
	DiskWrites uint64
	Evictions  uint64
}

// checksummed page layout: the first 4 bytes of every on-disk page hold the
// IEEE CRC-32 of the remaining PageSize-4 bytes. Page users (heap, B-tree)
// see only the payload region.
const (
	pageChecksumSize = 4
	// PagePayload is the number of bytes available to page users.
	PagePayload = PageSize - pageChecksumSize
)

type frame struct {
	sync.RWMutex
	key   PageKey
	data  []byte // full PageSize, checksum prefix included
	pins  int
	dirty bool
	ref   bool
	valid bool
}

// Pool is a shared buffer pool over a set of attached disk files, with
// clock (second-chance) eviction. All page access in the engine flows
// through Pin/Unpin; the pool verifies page checksums on fetch and
// maintains them on writeback.
type Pool struct {
	mu     sync.Mutex
	frames []frame
	table  map[PageKey]int
	disks  map[FileID]Disk
	hand   int
	stats  PoolStats
	// wal, when set, receives full page images of every batch at commit.
	// The pool then enforces the WAL rule with a no-steal policy: pages
	// dirtied by the open batch are never written back (or evicted) before
	// their images are durable in the log.
	wal *WAL
	// batch is the set of pages dirtied since BeginBatch (nil: no open
	// batch, pages are unlogged and write back freely).
	batch map[PageKey]bool
	// holds extends the no-steal rule to sealed batches: a page with a
	// nonzero hold count belongs to a batch whose log records are staged but
	// not yet known durable, so it must not be written back or evicted.
	holds map[PageKey]int
	// sealed counts outstanding sealed batches; drained broadcasts when it
	// returns to zero (checkpoints and detaches wait for that).
	sealed  int
	drained *sync.Cond
}

// NewPool creates a pool with the given number of page frames.
func NewPool(nframes int) *Pool {
	if nframes < 1 {
		nframes = 1
	}
	p := &Pool{
		frames: make([]frame, nframes),
		table:  make(map[PageKey]int, nframes),
		disks:  make(map[FileID]Disk),
		holds:  make(map[PageKey]int),
	}
	p.drained = sync.NewCond(&p.mu)
	for i := range p.frames {
		p.frames[i].data = make([]byte, PageSize)
	}
	return p
}

// SetWAL attaches a write-ahead log. Once set, mutations should be wrapped
// in a batch (BeginBatch, then SealBatch and Wait) so their page images are
// logged before any writeback.
func (p *Pool) SetWAL(w *WAL) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wal = w
}

// BeginBatch starts recording dirtied pages for the next SealBatch. While
// a batch is open its pages are pinned in memory (no-steal): they cannot be
// evicted or flushed, so nothing uncommitted ever reaches a data file.
func (p *Pool) BeginBatch() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.batch != nil {
		return fmt.Errorf("storage: batch already open")
	}
	p.batch = make(map[PageKey]bool)
	return nil
}

// BatchPages returns the number of pages dirtied by the open batch (0 when
// none is open). Long mutations use it to commit in chunks before the
// no-steal policy pins more pages than the pool holds.
func (p *Pool) BatchPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.batch)
}

// SealedBatch is a batch whose page images are staged in the WAL but not yet
// known durable. Its pages stay under the no-steal rule (hold counts) until
// Wait returns, so a lazy writeback can never push content to a data file
// ahead of its log records.
type SealedBatch struct {
	p       *Pool
	pending *PendingCommit // nil: nothing was logged, trivially durable
	pages   map[PageKey]bool
}

// SealBatch closes the open batch and stages its after-images in the WAL
// without waiting for the fsync. The caller then calls Wait once —
// typically after releasing whatever engine-level lock serialized the
// mutation, so concurrent sessions' fsyncs group. A batch that fails to
// stage is rolled back before SealBatch returns, as Wait rolls back one that
// fails to become durable.
//
// With no WAL attached nothing is logged: the batch's pages are written
// through to their disks here, so a later abort's reread finds this image;
// a failed write rolls the batch back.
func (p *Pool) SealBatch() (*SealedBatch, error) {
	p.mu.Lock()
	pages, wal := p.batch, p.wal
	if pages == nil {
		p.mu.Unlock()
		return nil, fmt.Errorf("storage: commit without open batch")
	}
	p.batch = nil
	if wal == nil {
		defer p.mu.Unlock()
		for key := range pages {
			if idx, ok := p.table[key]; ok {
				if err := p.writeback(&p.frames[idx]); err != nil {
					// The pages written so far keep the batch's image.
					return nil, errors.Join(err, p.restoreLocked(pages))
				}
			}
		}
		return &SealedBatch{}, nil
	}
	if len(pages) == 0 {
		p.mu.Unlock()
		return &SealedBatch{}, nil
	}
	var err error
	recs := make([]WALPageRec, 0, len(pages))
	for key := range pages {
		p.holds[key]++
		idx, ok := p.table[key]
		if !ok {
			// No-steal guarantees batch pages stay resident until commit.
			err = fmt.Errorf("storage: batch page %v not resident at commit", key)
			continue
		}
		f := &p.frames[idx]
		stampChecksum(f.data)
		img := make([]byte, PageSize)
		copy(img, f.data)
		recs = append(recs, WALPageRec{File: key.File, Page: key.Page, Image: img})
	}
	p.sealed++
	p.mu.Unlock()

	s := &SealedBatch{p: p, pages: pages}
	if err == nil {
		SortPageRecs(recs)
		// Stage outside p.mu: the log has its own lock, and serializing
		// appends under the pool lock would stall every reader.
		s.pending, err = wal.StageBatch(recs)
	}
	if err != nil {
		return nil, p.unseal(pages, err)
	}
	return s, nil
}

// Wait blocks until the sealed batch is durable, joining the WAL's group
// commit. On success the pages become ordinary dirty pages, free to be
// written back lazily. On failure the batch is not durable and never will
// be: before Wait returns, every page is back at its newest logged image
// and only then is the WAL's append gate released.
func (s *SealedBatch) Wait() error {
	if s.pending == nil {
		return nil
	}
	err := s.p.unseal(s.pages, s.pending.Wait())
	if err != nil {
		s.pending.Abandon()
	}
	return err
}

// unseal releases a sealed batch's page holds. A batch that failed to commit
// (cause non-nil) is rolled back first; unseal then returns cause, with any
// rollback error appended.
func (p *Pool) unseal(pages map[PageKey]bool, cause error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cause != nil {
		if err := p.restoreLocked(pages); err != nil {
			cause = fmt.Errorf("%w (and rolling back: %v)", cause, err)
		}
	}
	for key := range pages {
		if p.holds[key] > 1 {
			p.holds[key]--
		} else {
			delete(p.holds, key)
		}
	}
	p.sealed--
	invariant.Assertf(p.sealed >= 0, "storage: sealed batch count went negative")
	if p.sealed <= 0 {
		p.drained.Broadcast()
	}
	return cause
}

// WaitSealedDrained blocks until no sealed batch is outstanding. Checkpoints
// and detaches call it so they never observe pages held by an in-flight
// group commit. Callers must ensure no new seals start concurrently (the
// engine serializes mutations above this level).
func (p *Pool) WaitSealedDrained() {
	p.mu.Lock()
	for p.sealed > 0 {
		p.drained.Wait()
	}
	p.mu.Unlock()
}

// AbortBatch rolls the open batch back (see restoreLocked). Callers must
// then refresh any in-memory structures built over those pages.
func (p *Pool) AbortBatch() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	err := p.restoreLocked(p.batch)
	p.batch = nil
	return err
}

// restoreLocked rolls pages back to their newest logged image: a sealed
// predecessor's, else the last durable one. A page with no logged image
// since the last checkpoint, and every page when no WAL is attached, is
// dropped, so the next access rereads the data file. Called with p.mu held.
func (p *Pool) restoreLocked(pages map[PageKey]bool) error {
	var firstErr error
	for key := range pages {
		idx, ok := p.table[key]
		if !ok {
			continue
		}
		f := &p.frames[idx]
		var restored bool
		if p.wal != nil {
			var err error
			if restored, err = p.wal.ReadLatestImage(key, f.data); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if restored {
			// Content is the logged image; keep it dirty so it reaches the
			// data file eventually.
			f.dirty = true
			continue
		}
		if f.pins > 0 && firstErr == nil {
			firstErr = fmt.Errorf("storage: abort: page %v still pinned", key)
		}
		delete(p.table, key)
		f.valid = false
		f.dirty = false
	}
	return firstErr
}

// AttachDisk registers a disk under the given file id.
func (p *Pool) AttachDisk(id FileID, d Disk) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.disks[id] = d
}

// DetachDisk flushes and evicts all pages of the file and removes it from
// the pool. The caller owns closing the disk.
func (p *Pool) DetachDisk(id FileID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		f := &p.frames[i]
		if !f.valid || f.key.File != id {
			continue
		}
		if f.pins > 0 {
			return fmt.Errorf("storage: detach file %d: page %d still pinned", id, f.key.Page)
		}
		if p.holds[f.key] > 0 {
			return fmt.Errorf("storage: detach file %d: page %d held by a sealed batch", id, f.key.Page)
		}
		if f.dirty {
			if err := p.writeback(f); err != nil {
				return err
			}
		}
		delete(p.table, f.key)
		f.valid = false
	}
	delete(p.disks, id)
	return nil
}

// Handle is a pinned page. Data returns the payload region; MarkDirty must
// be called after mutating it; Unpin releases the pin. A Handle must not be
// used after Unpin.
type Handle struct {
	pool *Pool
	idx  int
	key  PageKey
}

// Key returns the page's address.
func (h *Handle) Key() PageKey { return h.key }

// Data returns the page payload (PagePayload bytes). The caller must hold
// the page lock discipline appropriate to its access (the heap and index
// layers serialize writers above this level).
func (h *Handle) Data() []byte {
	return h.pool.frames[h.idx].data[pageChecksumSize:]
}

// MarkDirty records that the payload was modified.
func (h *Handle) MarkDirty() {
	h.pool.mu.Lock()
	h.pool.frames[h.idx].dirty = true
	if h.pool.batch != nil {
		h.pool.batch[h.key] = true
	}
	h.pool.mu.Unlock()
}

// Unpin releases the pin taken by Pin/NewPage.
func (h *Handle) Unpin() {
	h.pool.mu.Lock()
	f := &h.pool.frames[h.idx]
	invariant.Assertf(f.pins > 0, "storage: unpin of frame %v with zero pins", f.key)
	if f.pins > 0 {
		f.pins--
	}
	f.ref = true
	h.pool.mu.Unlock()
}

// Pin fetches the page into the pool (reading from disk on a miss) and
// returns a pinned handle. Pin is small enough to inline, so a caller that
// keeps the handle to itself keeps it on its stack.
func (p *Pool) Pin(key PageKey) (h *Handle, err error) {
	h = &Handle{pool: p, key: key}
	if err = p.pin(h); err != nil {
		h = nil
	}
	return h, err
}

// pin pins the frame of h's page, reading the page on a miss, and sets
// h.idx to it.
func (p *Pool) pin(h *Handle) error {
	key := h.key
	p.mu.Lock()
	defer p.mu.Unlock()
	if idx, ok := p.table[key]; ok {
		f := &p.frames[idx]
		f.pins++
		f.ref = true
		p.stats.Hits++
		mPoolHits.Inc()
		h.idx = idx
		return nil
	}
	p.stats.Misses++
	mPoolMisses.Inc()
	disk, ok := p.disks[key.File]
	if !ok {
		return fmt.Errorf("storage: pin: file %d not attached", key.File)
	}
	idx, err := p.victim()
	if err != nil {
		return err
	}
	f := &p.frames[idx]
	if err := disk.ReadPage(key.Page, f.data); err != nil {
		f.valid = false
		return err
	}
	p.stats.DiskReads++
	mPoolReads.Inc()
	if err := verifyChecksum(f.data); err != nil {
		f.valid = false
		return fmt.Errorf("storage: page %v: %w", key, err)
	}
	f.key = key
	f.pins = 1
	f.dirty = false
	f.ref = true
	f.valid = true
	p.table[key] = idx
	h.idx = idx
	return nil
}

// NewPage allocates a fresh page in the file and returns it pinned and
// zeroed.
func (p *Pool) NewPage(file FileID) (*Handle, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	disk, ok := p.disks[file]
	if !ok {
		return nil, fmt.Errorf("storage: new page: file %d not attached", file)
	}
	id, err := disk.Allocate()
	if err != nil {
		return nil, err
	}
	idx, err := p.victim()
	if err != nil {
		return nil, err
	}
	f := &p.frames[idx]
	for i := range f.data {
		f.data[i] = 0
	}
	key := PageKey{File: file, Page: id}
	f.key = key
	f.pins = 1
	f.dirty = true
	f.ref = true
	f.valid = true
	p.table[key] = idx
	if p.batch != nil {
		p.batch[key] = true
	}
	return &Handle{pool: p, idx: idx, key: key}, nil
}

// victim finds a free or evictable frame using the clock algorithm.
// Called with p.mu held.
func (p *Pool) victim() (int, error) {
	n := len(p.frames)
	// Two full sweeps: the first clears reference bits, the second evicts.
	for sweep := 0; sweep < 2*n+1; sweep++ {
		f := &p.frames[p.hand]
		idx := p.hand
		p.hand = (p.hand + 1) % n
		if !f.valid {
			return idx, nil
		}
		if f.pins > 0 {
			continue
		}
		// WAL rule (no-steal): a page dirtied by the open batch, or held by a
		// sealed batch whose group commit is still in flight, must not be
		// written back before its log record is durable — treat it as pinned.
		if p.batch != nil && p.batch[f.key] {
			continue
		}
		if p.holds[f.key] > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		if f.dirty {
			if err := p.writeback(f); err != nil {
				return 0, err
			}
		} else if invariant.Enabled {
			// A clean frame's stamp was verified at Pin (or stamped at
			// writeback); a mismatch here means the page was mutated
			// without MarkDirty and the change is about to be lost.
			invariant.Assertf(verifyChecksum(f.data) == nil,
				"storage: evicting clean frame %v whose content no longer matches its checksum (mutation without MarkDirty)", f.key)
		}
		delete(p.table, f.key)
		f.valid = false
		p.stats.Evictions++
		mPoolEvictions.Inc()
		return idx, nil
	}
	return 0, fmt.Errorf("storage: buffer pool exhausted: all %d frames pinned", n)
}

// writeback computes the checksum and writes the frame to its disk.
// Called with p.mu held.
func (p *Pool) writeback(f *frame) error {
	disk, ok := p.disks[f.key.File]
	if !ok {
		return fmt.Errorf("storage: writeback: file %d not attached", f.key.File)
	}
	stampChecksum(f.data)
	if err := disk.WritePage(f.key.Page, f.data); err != nil {
		return err
	}
	p.stats.DiskWrites++
	mPoolWrites.Inc()
	f.dirty = false
	return nil
}

// FlushAll writes back every dirty page.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	mPoolFlushes.Inc()
	for i := range p.frames {
		f := &p.frames[i]
		if f.valid && f.dirty {
			if (p.batch != nil && p.batch[f.key]) || p.holds[f.key] > 0 {
				// Uncommitted (open or sealed-but-unsynced) batch pages must
				// not reach disk.
				continue
			}
			if err := p.writeback(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// DiskPages returns the allocated page count of an attached file.
func (p *Pool) DiskPages(file FileID) (PageID, error) {
	p.mu.Lock()
	d, ok := p.disks[file]
	p.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("storage: file %d not attached", file)
	}
	return d.NumPages(), nil
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ResetStats zeroes the pool counters (used between benchmark runs).
func (p *Pool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = PoolStats{}
}

func stampChecksum(page []byte) {
	sum := crc32.ChecksumIEEE(page[pageChecksumSize:])
	page[0] = byte(sum)
	page[1] = byte(sum >> 8)
	page[2] = byte(sum >> 16)
	page[3] = byte(sum >> 24)
}

func verifyChecksum(page []byte) error {
	stored := uint32(page[0]) | uint32(page[1])<<8 | uint32(page[2])<<16 | uint32(page[3])<<24
	if stored == 0 {
		// A fresh page that was never written back: all-zero is valid.
		allZero := true
		for _, b := range page[pageChecksumSize:] {
			if b != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			return nil
		}
	}
	if sum := crc32.ChecksumIEEE(page[pageChecksumSize:]); sum != stored {
		return fmt.Errorf("checksum mismatch: stored %08x computed %08x", stored, crc32.ChecksumIEEE(page[pageChecksumSize:]))
	}
	return nil
}
