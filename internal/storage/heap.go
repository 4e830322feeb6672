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
//	[6:..) slot array — per slot: offset uint16, length uint16
//	...    free space
//	[freeEnd:PagePayload) tuple bytes, growing downward
//
// A dead (deleted) slot has offset == deadSlot. Offsets address the page
// payload region.
const (
	heapHeaderSize = 6
	slotSize       = 4
	deadSlot       = uint16(0xFFFF)
)

// MaxRecordSize is the largest record a heap page can hold.
const MaxRecordSize = PagePayload - heapHeaderSize - slotSize

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

	mu sync.RWMutex
	// spacePage is a cursor to the page most likely to accept an insert; it
	// avoids rescanning the file per insert without maintaining a full
	// free-space map.
	spacePage PageID
	numPages  PageID
	numRecs   int64
}

// OpenHeap opens the heap stored in file (which must already be attached to
// the pool), scanning existing pages to rebuild the record count.
func OpenHeap(pool *Pool, file FileID) (*Heap, error) {
	h := &Heap{pool: pool, file: file, spacePage: InvalidPageID}
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
			off := binary.LittleEndian.Uint16(data[heapHeaderSize+int(s)*slotSize:])
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

// Insert appends a record and returns its RID.
func (h *Heap) Insert(rec []byte) (RID, error) {
	if len(rec) > MaxRecordSize {
		return RID{}, fmt.Errorf("storage: record of %d bytes exceeds max %d", len(rec), MaxRecordSize)
	}
	h.mu.Lock()
	defer h.mu.Unlock()

	// Try the cursor page first, then allocate.
	if h.spacePage != InvalidPageID {
		if rid, ok, err := h.tryInsert(h.spacePage, rec); err != nil {
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
	rid, ok, err := h.tryInsert(pid, rec)
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

// tryInsert attempts to place rec on page pid. Called with h.mu held.
func (h *Heap) tryInsert(pid PageID, rec []byte) (RID, bool, error) {
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
	need := len(rec) + slotSize
	if int(freeEnd)-int(freeStart) < need {
		return RID{}, false, nil
	}
	off := freeEnd - uint16(len(rec))
	copy(data[off:], rec)
	slotOff := freeStart
	binary.LittleEndian.PutUint16(data[slotOff:], off)
	binary.LittleEndian.PutUint16(data[slotOff+2:], uint16(len(rec)))
	binary.LittleEndian.PutUint16(data[0:2], nslots+1)
	binary.LittleEndian.PutUint16(data[2:4], freeStart+slotSize)
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
	off := binary.LittleEndian.Uint16(data[heapHeaderSize+int(rid.Slot)*slotSize:])
	if off == deadSlot {
		return nil, fmt.Errorf("storage: get %v: record deleted", rid)
	}
	length := binary.LittleEndian.Uint16(data[heapHeaderSize+int(rid.Slot)*slotSize+2:])
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
	slotOff := heapHeaderSize + int(rid.Slot)*slotSize
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
	nslots uint16
	npages PageID
}

// Scan returns an iterator positioned before the first record.
func (h *Heap) Scan() *Iter {
	h.mu.RLock()
	np := h.numPages
	h.mu.RUnlock()
	return &Iter{h: h, page: 0, slot: 0, nslots: 0, npages: np}
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
	return &Iter{h: h, page: lo, slot: 0, nslots: 0, npages: hi}
}

// Page is a view of the live part of one pinned heap page, as NextPage
// hands it to its callback: slots 0 to Len()-1 from the scan's position on.
// The records it returns alias the page buffer, so a Page and everything read
// off it are valid only during the callback.
type Page struct {
	data  []byte // the page payload
	slots []byte // the slot array, from the scan's position to its end
}

// Len is the number of slots on the page, dead ones included.
func (p *Page) Len() int { return len(p.slots) / slotSize }

// Record is the record in slot i; live=false for a deleted slot.
func (p *Page) Record(i int) (rec []byte, live bool) {
	s := binary.LittleEndian.Uint32(p.slots[i*slotSize:])
	if off := int(s & 0xFFFF); off != int(deadSlot) {
		return p.data[off : off+int(s>>16)], true
	}
	return nil, false
}

// NewPage lays recs out as the live records of one page, for a record source
// that holds its records in memory rather than in a heap. Together they must
// fit a page.
func NewPage(recs [][]byte) Page {
	p := Page{slots: make([]byte, 0, len(recs)*slotSize)}
	for _, rec := range recs {
		if len(p.data)+len(rec) > PagePayload {
			panic(fmt.Sprintf("storage: %d records overflow a page", len(recs)))
		}
		p.slots = binary.LittleEndian.AppendUint16(p.slots, uint16(len(p.data)))
		p.slots = binary.LittleEndian.AppendUint16(p.slots, uint16(len(rec)))
		p.data = append(p.data, rec...)
	}
	return p
}

// NextPage processes one heap page of the scan: it pins the scan's current
// page, hands fn a view of its slots from the scan's position on, unpins and
// advances to the next page. more=false reports that the scan was already
// exhausted (fn was not called). The page and the records read off it alias
// the pinned page buffer — they are only valid during fn and must be copied
// to be retained; fn must not pin pages of the same pool itself. An fn error
// leaves the scan on the page (more stays true) and surfaces verbatim.
// NextPage and Next may be mixed: both respect the scan's current page/slot
// position.
//
// The heap's read lock is held for the page, fn included, so an Insert
// cannot write the page while fn reads it. fn must therefore take no lock
// that an inserter holds while it waits for the heap (the engine's e.mu),
// and must not call back into this heap.
func (it *Iter) NextPage(fn func(pg Page) error) (more bool, err error) {
	if it.page >= it.npages {
		return false, nil
	}
	it.h.mu.RLock()
	defer it.h.mu.RUnlock()
	hd, err := it.h.pool.Pin(PageKey{File: it.h.file, Page: it.page})
	if err != nil {
		return false, err
	}
	data := hd.Data()
	nslots := int(binary.LittleEndian.Uint16(data[0:2]))
	from := min(int(it.slot), nslots)
	if err := fn(Page{data: data, slots: data[heapHeaderSize+from*slotSize : heapHeaderSize+nslots*slotSize]}); err != nil {
		hd.Unpin()
		return true, err
	}
	hd.Unpin()
	it.page++
	it.slot = 0
	return true, nil
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
		slotOff := heapHeaderSize + int(it.slot)*slotSize
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
