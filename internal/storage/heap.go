package storage

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Slotted-page heap file. Each page payload is laid out as:
//
//	[0:2)  slotCount  uint16
//	[2:4)  freeStart  uint16  — end of the slot array
//	[4:6)  freeEnd    uint16  — start of the tuple data region
//	[6:..) slot array — per slot: offset uint16, length uint16, then the
//	       heap's key bytes
//	...    free space
//	[freeEnd:PagePayload) tuple bytes, growing downward
//
// A dead (deleted) slot has offset == deadSlot. Offsets address the page
// payload region. A keyed heap's slots carry a fixed number of key bytes
// each, written with the record by Insert and never changed: the slot array
// is then a dense array of every row's keys, which a scan reads (Page.Keys)
// without touching a record, as PAX keeps one column's values together in a
// page (Ailamaki et al., VLDB 2001). What the keys hold is the caller's; the
// heap knows only their width, which its opener passes and every page of the
// file shares.
const (
	heapHeaderSize = 6
	slotSize       = 4 // a slot's offset and length, ahead of its keys
	deadSlot       = uint16(0xFFFF)
)

// MaxRecordSize is the largest record a page of a heap whose slots carry
// keyBytes of keys can hold.
func MaxRecordSize(keyBytes int) int { return PagePayload - heapHeaderSize - slotSize - keyBytes }

// RID is a record identifier: page number plus slot index.
type RID struct {
	Page PageID
	Slot uint16
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// Heap is a heap file of variable-length records stored in slotted pages of
// one buffer-pool file. Writers are serialized by an internal mutex;
// readers may proceed concurrently with other readers.
type Heap struct {
	pool *Pool
	file FileID
	// width is a slot's bytes: its offset and length, and its keys.
	width int

	mu sync.RWMutex
	// spacePage is a cursor to the page most likely to accept an insert; it
	// avoids rescanning the file per insert without maintaining a full
	// free-space map.
	spacePage PageID
	numPages  PageID
	numRecs   int64
}

// OpenHeap opens the heap stored in file (which must already be attached to
// the pool), whose slots carry keyBytes of keys each, scanning existing pages
// to rebuild the record count.
func OpenHeap(pool *Pool, file FileID, keyBytes int) (*Heap, error) {
	h := &Heap{pool: pool, file: file, width: slotSize + keyBytes, spacePage: InvalidPageID}
	np, err := pool.DiskPages(file)
	if err != nil {
		return nil, fmt.Errorf("storage: heap: %w", err)
	}
	h.numPages = np
	for pid := PageID(0); pid < h.numPages; pid++ {
		hd, err := pool.Pin(PageKey{File: file, Page: pid})
		if err != nil {
			return nil, err
		}
		data := hd.Data()
		nslots := binary.LittleEndian.Uint16(data[0:2])
		for s := uint16(0); s < nslots; s++ {
			off := binary.LittleEndian.Uint16(data[heapHeaderSize+int(s)*h.width:])
			if off != deadSlot {
				h.numRecs++
			}
		}
		hd.Unpin()
	}
	if h.numPages > 0 {
		h.spacePage = h.numPages - 1
	}
	return h, nil
}

// NumRecords returns the live record count.
func (h *Heap) NumRecords() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.numRecs
}

// NumPages returns the allocated page count (the P quantity of Table 2).
func (h *Heap) NumPages() PageID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.numPages
}

// Insert appends a record, with keys in its slot, and returns its RID. keys
// must be as wide as the heap's slots carry.
func (h *Heap) Insert(rec, keys []byte) (RID, error) {
	if len(keys) != h.width-slotSize {
		return RID{}, fmt.Errorf("storage: %d key bytes for slots of %d", len(keys), h.width-slotSize)
	}
	if max := MaxRecordSize(len(keys)); len(rec) > max {
		return RID{}, fmt.Errorf("storage: record of %d bytes exceeds max %d", len(rec), max)
	}
	h.mu.Lock()
	defer h.mu.Unlock()

	// Try the cursor page first, then allocate.
	if h.spacePage != InvalidPageID {
		if rid, ok, err := h.tryInsert(h.spacePage, rec, keys); err != nil {
			return RID{}, err
		} else if ok {
			h.numRecs++
			return rid, nil
		}
	}
	hd, err := h.pool.NewPage(h.file)
	if err != nil {
		return RID{}, err
	}
	initHeapPage(hd.Data())
	hd.MarkDirty()
	pid := hd.Key().Page
	hd.Unpin()
	h.numPages++
	h.spacePage = pid
	rid, ok, err := h.tryInsert(pid, rec, keys)
	if err != nil {
		return RID{}, err
	}
	if !ok {
		return RID{}, fmt.Errorf("storage: fresh page rejected %d-byte record", len(rec))
	}
	h.numRecs++
	return rid, nil
}

func initHeapPage(data []byte) {
	binary.LittleEndian.PutUint16(data[0:2], 0)
	binary.LittleEndian.PutUint16(data[2:4], heapHeaderSize)
	binary.LittleEndian.PutUint16(data[4:6], uint16(PagePayload))
}

// tryInsert attempts to place rec, with its slot's keys, on page pid. Called
// with h.mu held.
func (h *Heap) tryInsert(pid PageID, rec, keys []byte) (RID, bool, error) {
	hd, err := h.pool.Pin(PageKey{File: h.file, Page: pid})
	if err != nil {
		return RID{}, false, err
	}
	defer hd.Unpin()
	data := hd.Data()
	nslots := binary.LittleEndian.Uint16(data[0:2])
	freeStart := binary.LittleEndian.Uint16(data[2:4])
	freeEnd := binary.LittleEndian.Uint16(data[4:6])
	if freeStart == 0 && freeEnd == 0 {
		// Page never initialized (file grown out-of-band): initialize now.
		initHeapPage(data)
		freeStart = heapHeaderSize
		freeEnd = uint16(PagePayload)
	}
	need := len(rec) + h.width
	if int(freeEnd)-int(freeStart) < need {
		return RID{}, false, nil
	}
	off := freeEnd - uint16(len(rec))
	copy(data[off:], rec)
	slotOff := freeStart
	binary.LittleEndian.PutUint16(data[slotOff:], off)
	binary.LittleEndian.PutUint16(data[slotOff+2:], uint16(len(rec)))
	copy(data[slotOff+slotSize:], keys)
	binary.LittleEndian.PutUint16(data[0:2], nslots+1)
	binary.LittleEndian.PutUint16(data[2:4], freeStart+uint16(h.width))
	binary.LittleEndian.PutUint16(data[4:6], off)
	hd.MarkDirty()
	return RID{Page: pid, Slot: nslots}, true, nil
}

// Get returns a copy of the record at rid.
func (h *Heap) Get(rid RID) ([]byte, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	hd, err := h.pool.Pin(PageKey{File: h.file, Page: rid.Page})
	if err != nil {
		return nil, err
	}
	defer hd.Unpin()
	data := hd.Data()
	nslots := binary.LittleEndian.Uint16(data[0:2])
	if rid.Slot >= nslots {
		return nil, fmt.Errorf("storage: get %v: no such slot", rid)
	}
	slotOff := heapHeaderSize + int(rid.Slot)*h.width
	off := binary.LittleEndian.Uint16(data[slotOff:])
	if off == deadSlot {
		return nil, fmt.Errorf("storage: get %v: record deleted", rid)
	}
	length := binary.LittleEndian.Uint16(data[slotOff+2:])
	out := make([]byte, length)
	copy(out, data[off:off+length])
	return out, nil
}

// Delete marks the record at rid dead. The space is not compacted; the
// paper's workloads are append-then-query, so vacuuming is out of scope.
func (h *Heap) Delete(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	hd, err := h.pool.Pin(PageKey{File: h.file, Page: rid.Page})
	if err != nil {
		return err
	}
	defer hd.Unpin()
	data := hd.Data()
	nslots := binary.LittleEndian.Uint16(data[0:2])
	if rid.Slot >= nslots {
		return fmt.Errorf("storage: delete %v: no such slot", rid)
	}
	slotOff := heapHeaderSize + int(rid.Slot)*h.width
	if binary.LittleEndian.Uint16(data[slotOff:]) == deadSlot {
		return fmt.Errorf("storage: delete %v: already deleted", rid)
	}
	binary.LittleEndian.PutUint16(data[slotOff:], deadSlot)
	hd.MarkDirty()
	h.numRecs--
	return nil
}

// Iter is a forward scan over all live records of the heap.
type Iter struct {
	h      *Heap
	page   PageID
	slot   uint16
	npages PageID
	// run holds the frames of pages [runLo, runLo+nrun), pinned together
	// by one pinRun: NextPage reads them a call at a time and unpins them
	// together after the last, Close when the scan stops short of it. The
	// frames are held by address: the pool's own fields share a cache line
	// with its lock, which the other scans of the pool keep taking.
	// dropped is the pool's count of dropped pinned frames (Pool.dropped)
	// when the run was pinned.
	runLo   PageID
	nrun    int
	dropped uint64
	run     [RunPages]*frame
}

// Scan returns an iterator positioned before the first record.
func (h *Heap) Scan() *Iter {
	h.mu.RLock()
	np := h.numPages
	h.mu.RUnlock()
	return &Iter{h: h, npages: np}
}

// ScanRange returns an iterator over the live records of pages [lo, hi):
// one morsel of a parallel scan. The bounds are clamped to the heap's
// current page count, so a caller partitioning a stale count stays safe.
func (h *Heap) ScanRange(lo, hi PageID) *Iter {
	h.mu.RLock()
	np := h.numPages
	h.mu.RUnlock()
	if hi > np {
		hi = np
	}
	if lo > hi {
		lo = hi
	}
	return &Iter{h: h, page: lo, npages: hi}
}

// Page is a view of the live part of one pinned heap page, as NextPage
// hands it to its callback: slots 0 to Len()-1 from the scan's position on.
// The records and keys it returns alias the page buffer, so a Page and
// everything read off it are valid only during the callback.
type Page struct {
	data  []byte // the page payload
	slots []byte // the slot array, from the scan's position to its end
	width int    // a slot's bytes: offset, length and keys
}

// Len is the number of slots on the page, dead ones included.
func (p *Page) Len() int { return len(p.slots) / p.width }

// Record is the record in slot i; live=false for a deleted slot.
func (p *Page) Record(i int) (rec []byte, live bool) {
	s := binary.LittleEndian.Uint32(p.slots[i*p.width:])
	if off := int(s & 0xFFFF); off != int(deadSlot) {
		return p.data[off : off+int(s>>16)], true
	}
	return nil, false
}

// Keys is the keys in slot i, empty for a heap whose slots carry none;
// live=false for a deleted slot. It reads the slot array only.
func (p *Page) Keys(i int) (keys []byte, live bool) {
	return SlotKeys(p.slots[i*p.width : (i+1)*p.width])
}

// Slots is the slot array and a slot's width: slot i is
// slots[i*width:(i+1)*width], which SlotKeys reads.
func (p *Page) Slots() (slots []byte, width int) { return p.slots, p.width }

// SlotHeaderBytes is what a slot holds ahead of its keys: its record's
// offset and length. A page whose slots carry k bytes of keys has slots
// SlotHeaderBytes+k wide (Slots).
const SlotHeaderBytes = slotSize

// SlotKeys is Keys of one slot of a Slots array.
func SlotKeys(slot []byte) (keys []byte, live bool) {
	return slot[slotSize:], binary.LittleEndian.Uint16(slot) != deadSlot
}

// NewPage returns an empty page whose slots carry keyBytes of keys each, for
// a record source that holds its records in memory rather than in a heap;
// Add fills it.
func NewPage(keyBytes int) Page { return Page{width: slotSize + keyBytes} }

// Add appends rec, with keys in its slot, as the page's next live record.
// ok=false, and the page unchanged, when the page holds records and rec
// would not fit a heap page beside them; an empty page takes any record its
// slot can address, one of less than 64 KiB.
func (p *Page) Add(rec, keys []byte) (ok bool) {
	if len(keys) != p.width-slotSize {
		panic(fmt.Sprintf("storage: %d key bytes for slots of %d", len(keys), p.width-slotSize))
	}
	if len(p.slots) > 0 && heapHeaderSize+len(p.slots)+len(p.data)+p.width+len(rec) > PagePayload || len(p.data)+len(rec) >= int(deadSlot) {
		return false
	}
	p.slots = binary.LittleEndian.AppendUint16(p.slots, uint16(len(p.data)))
	p.slots = binary.LittleEndian.AppendUint16(p.slots, uint16(len(rec)))
	p.slots = append(p.slots, keys...)
	p.data = append(p.data, rec...)
	return true
}

// Reset empties a page NewPage made, keeping its buffers for Add to refill.
func (p *Page) Reset() { p.data, p.slots = p.data[:0], p.slots[:0] }

// Cap is the bytes the buffers of a page NewPage made hold, the room Add has
// yet to fill included.
func (p *Page) Cap() int { return cap(p.data) + cap(p.slots) }

// NextPage processes one heap page of the scan: it hands fn a view of the
// scan's current page from the scan's position on, then advances to the
// next page. more=false reports that the scan was already exhausted (fn was
// not called). The page and the records read off it alias the pinned page
// buffer — they are only valid during fn and must be copied to be retained;
// fn must not pin pages of the same pool itself. An fn error leaves the scan
// on the page (more stays true) and surfaces verbatim. NextPage and Next may
// be mixed: both respect the scan's current page/slot position.
//
// Pages are pinned a run at a time: where the current page has no pin yet,
// NextPage pins it and the resident pages that follow it in the scan's
// range, up to RunPages, under one pool lock (pinRun). Those pins span
// calls; NextPage releases them, again under one lock, after the run's last
// page, and Close releases what a scan that stops short still holds (after
// an fn error, or when its consumer stops reading). Where a rollback or a
// detach dropped a pinned frame since the run was pinned (Pool.dropped),
// NextPage releases the run and pins from the current page again, so it
// reads the rolled-back page afresh, or fails on a detached file, as a
// page pinned after the drop would.
//
// The heap's read lock is held for the page, fn included, so an Insert
// cannot write the page while fn reads it. Unlike the run's pins it is not
// held between calls: a self-join's outer scan would then hold it while its
// inner scan, on the same goroutine, asks for it again, and a new read lock
// queues behind a waiting Insert, which waits for the outer scan's. fn must
// take no lock that an inserter holds while it waits for the heap (the
// engine's e.mu), and must not call back into this heap.
func (it *Iter) NextPage(fn func(pg Page) error) (more bool, err error) {
	if it.page >= it.npages {
		return false, nil
	}
	pool := it.h.pool
	if it.page < it.runLo || it.page-it.runLo >= PageID(it.nrun) || pool.dropped.Load() != it.dropped {
		it.Close()
		it.dropped = pool.dropped.Load()
		n, err := pool.pinRun(it.h.file, it.page, it.run[:min(RunPages, it.npages-it.page)])
		if err != nil {
			return false, err
		}
		it.runLo, it.nrun = it.page, n
	}
	data := it.run[it.page-it.runLo].data[pageChecksumSize:]
	it.h.mu.RLock()
	defer it.h.mu.RUnlock()
	nslots := int(binary.LittleEndian.Uint16(data[0:2]))
	from := min(int(it.slot), nslots)
	if err := fn(Page{data: data, slots: data[heapHeaderSize+from*it.h.width : heapHeaderSize+nslots*it.h.width], width: it.h.width}); err != nil {
		return true, err
	}
	it.page++
	it.slot = 0
	if it.page-it.runLo == PageID(it.nrun) {
		it.Close()
	}
	return true, nil
}

// Close releases the pins of the scan's current run, if it holds one. A scan
// that NextPage read to its end holds none; one that stops short must be
// closed. Close may be called more than once, and the scan may go on after
// it: NextPage pins a new run.
func (it *Iter) Close() {
	if it.nrun > 0 {
		it.h.pool.unpinRun(it.run[:it.nrun])
		it.nrun = 0
	}
}

// Next returns the next live record, its RID, and whether one was found.
// The returned slice is a copy owned by the caller.
func (it *Iter) Next() (RID, []byte, bool, error) {
	for {
		if it.page >= it.npages {
			return RID{}, nil, false, nil
		}
		rid, rec, ok, err := it.nextOnPage()
		if err != nil || ok {
			return rid, rec, ok, err
		}
		it.page++
		it.slot = 0
	}
}

// nextOnPage copies the next live record of the scan's current page under
// the heap's read lock; ok=false means the page has no more.
func (it *Iter) nextOnPage() (rid RID, rec []byte, ok bool, err error) {
	it.h.mu.RLock()
	defer it.h.mu.RUnlock()
	hd, err := it.h.pool.Pin(PageKey{File: it.h.file, Page: it.page})
	if err != nil {
		return RID{}, nil, false, err
	}
	defer hd.Unpin()
	data := hd.Data()
	nslots := binary.LittleEndian.Uint16(data[0:2])
	for ; it.slot < nslots; it.slot++ {
		slotOff := heapHeaderSize + int(it.slot)*it.h.width
		off := binary.LittleEndian.Uint16(data[slotOff:])
		if off == deadSlot {
			continue
		}
		length := binary.LittleEndian.Uint16(data[slotOff+2:])
		rec = make([]byte, length)
		copy(rec, data[off:off+length])
		rid = RID{Page: it.page, Slot: it.slot}
		it.slot++
		return rid, rec, true, nil
	}
	return RID{}, nil, false, nil
}
