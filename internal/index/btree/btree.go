// Package btree implements a disk-backed B+Tree over the storage buffer
// pool. Keys are arbitrary byte strings compared lexicographically (callers
// use the order-preserving encoding in the types package); values are heap
// RIDs. Duplicate keys are supported by keeping entries unique on
// (key, RID).
//
// Nodes are searched and updated in their pinned page bytes: a lookup
// decodes nothing, an insert shifts the entries after its slot and writes
// the new one in place, and only a split builds its two halves anew.
//
// The engine uses the B+Tree for equality and range access paths, for the
// parent-edge index of the SemEQUAL taxonomy table (the paper's §5.4
// "B+Tree index on the parent attribute"), and as the substrate of the MDI
// pivot-distance index used by the outside-the-server baseline.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/mural-db/mural/internal/invariant"
	"github.com/mural-db/mural/internal/storage"
)

const (
	metaPage  = storage.PageID(0)
	metaMagic = uint32(0xB7EE0001)
	nodeLeaf  = byte(0)
	nodeInner = byte(1)
	// maxKeyLen bounds keys so that a node can always hold a few entries.
	maxKeyLen = 1024
)

// BTree is a single-file B+Tree. All methods are safe for concurrent use;
// writers are serialized.
type BTree struct {
	pool *storage.Pool
	file storage.FileID

	mu     sync.RWMutex
	root   storage.PageID
	height int
}

// Create initializes a fresh B+Tree in an empty attached file.
func Create(pool *storage.Pool, file storage.FileID) (*BTree, error) {
	np, err := pool.DiskPages(file)
	if err != nil {
		return nil, err
	}
	if np != 0 {
		return nil, fmt.Errorf("btree: create in non-empty file (%d pages)", np)
	}
	meta, err := pool.NewPage(file)
	if err != nil {
		return nil, err
	}
	defer meta.Unpin()
	rootH, err := pool.NewPage(file)
	if err != nil {
		return nil, err
	}
	defer rootH.Unpin()
	putHeader(rootH.Data(), nodeLeaf, 0, storage.InvalidPageID)
	rootH.MarkDirty()
	t := &BTree{pool: pool, file: file, root: rootH.Key().Page, height: 1}
	t.writeMeta(meta)
	return t, nil
}

// Open loads an existing B+Tree from its file.
func Open(pool *storage.Pool, file storage.FileID) (*BTree, error) {
	h, err := pool.Pin(storage.PageKey{File: file, Page: metaPage})
	if err != nil {
		return nil, err
	}
	defer h.Unpin()
	d := h.Data()
	if binary.LittleEndian.Uint32(d[0:4]) != metaMagic {
		return nil, fmt.Errorf("btree: bad magic in file %d", file)
	}
	t := &BTree{
		pool:   pool,
		file:   file,
		root:   storage.PageID(binary.LittleEndian.Uint32(d[4:8])),
		height: int(binary.LittleEndian.Uint32(d[8:12])),
	}
	return t, nil
}

// writeMeta writes the root and the height to the meta page. Bytes 12–20,
// where earlier files kept an entry count, are left as they are: nothing
// reads them.
func (t *BTree) writeMeta(h *storage.Handle) {
	d := h.Data()
	binary.LittleEndian.PutUint32(d[0:4], metaMagic)
	binary.LittleEndian.PutUint32(d[4:8], uint32(t.root))
	binary.LittleEndian.PutUint32(d[8:12], uint32(t.height))
	h.MarkDirty()
}

func (t *BTree) syncMeta() error {
	h, err := t.pool.Pin(storage.PageKey{File: t.file, Page: metaPage})
	if err != nil {
		return err
	}
	defer h.Unpin()
	t.writeMeta(h)
	return nil
}

// Height returns the tree height in levels (1 = a lone leaf). It is the h
// quantity in the paper's Table 2 cost symbols.
func (t *BTree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

// NumPages returns the allocated page count of the index file (the PI
// quantity of Table 2).
func (t *BTree) NumPages() (storage.PageID, error) {
	return t.pool.DiskPages(t.file)
}

// Node format (page payload):
//
//	[0]     type
//	[1:3)   entry count
//	[3:7)   next (leaf) / rightmost child (inner)
//	entries: keyLen uvarint | key | payload
//	  leaf payload:  page uint32 | slot uint16
//	  inner payload: page uint32 | slot uint16 | child uint32
//
// Entries follow one another from byte 7; every byte past the last one is
// zero. Leaf entries are sorted by (key, rid), and next links the leaf
// chain. An inner node's entries are separators carrying the full
// (key, rid) composite, so duplicate keys order deterministically across
// splits: entry i's child holds the composites below separator i and at or
// above separator i-1, and the rightmost child those at or above the last.
const (
	headerSize   = 7
	leafPayload  = 6
	innerPayload = 10
	// maxEntrySize is the longest entry: a maxKeyLen key's two-byte
	// length, the key and an inner payload.
	maxEntrySize = 2 + maxKeyLen + innerPayload
)

var errCorrupt = errors.New("btree: corrupt node")

// node is a view of one pinned tree page's payload; nothing is decoded
// ahead of use. Its methods check every entry they walk against the page
// bounds.
type node struct {
	d       []byte
	page    storage.PageID
	count   int
	payload int // leafPayload or innerPayload
}

// openNode views page's payload d as a node of the level it is reached at,
// and counts one node visit.
func openNode(d []byte, page storage.PageID, leaf bool) (node, error) {
	mNodeVisits.Inc()
	n := node{d: d, page: page, count: int(binary.LittleEndian.Uint16(d[1:3])), payload: leafPayload}
	typ := nodeLeaf
	if !leaf {
		typ, n.payload = nodeInner, innerPayload
	}
	if d[0] != typ {
		return node{}, n.corrupt("type %d where %d belongs", d[0], typ)
	}
	// The shortest entry has an empty key.
	if headerSize+n.count*(1+n.payload) > len(d) {
		return node{}, n.corrupt("%d entries overrun the page", n.count)
	}
	return n, nil
}

func (n node) corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: page %d: %s", errCorrupt, n.page, fmt.Sprintf(format, args...))
}

func (n node) leaf() bool { return n.payload == leafPayload }

// link is a leaf's next leaf, or an inner node's rightmost child.
func (n node) link() storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(n.d[3:7]))
}

// entry parses the entry at offset off: its key, which aliases the page,
// and the offset of its payload.
func (n node) entry(off int) ([]byte, int, error) {
	if off >= len(n.d) {
		return nil, 0, n.corrupt("entry at byte %d overruns the page", off)
	}
	klen, sz := uint64(0), 1
	if b := n.d[off]; b < 0x80 {
		klen = uint64(b)
	} else if klen, sz = binary.Uvarint(n.d[off:]); sz <= 0 {
		return nil, 0, n.corrupt("bad key length at byte %d", off)
	}
	if klen > maxKeyLen {
		return nil, 0, n.corrupt("key of %d bytes at byte %d", klen, off)
	}
	k := off + sz
	pl := k + int(klen)
	if pl+n.payload > len(n.d) {
		return nil, 0, n.corrupt("entry at byte %d overruns the page", off)
	}
	return n.d[k:pl:pl], pl, nil
}

func (n node) rid(pl int) storage.RID {
	return storage.RID{
		Page: storage.PageID(binary.LittleEndian.Uint32(n.d[pl : pl+4])),
		Slot: binary.LittleEndian.Uint16(n.d[pl+4 : pl+6]),
	}
}

// child returns the child that the descent takes at entry i, whose
// payload starts at pl: the entry's own, or the rightmost past the last.
func (n node) child(pl, i int) storage.PageID {
	if i == n.count {
		return n.link()
	}
	return storage.PageID(binary.LittleEndian.Uint32(n.d[pl+6 : pl+10]))
}

// seek walks n to its first entry above the composite (key, rid) or, in a
// leaf, at or above it. It returns the entry's offset, its payload's offset
// and its index, and c, the order of (key, rid) against it; past the last
// entry it returns the end of the entries, 0, n.count and 1.
func (n node) seek(key []byte, rid storage.RID) (off, pl, i, c int, err error) {
	off = headerSize
	for i = 0; i < n.count; i++ {
		k, p, err := n.entry(off)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if c = cmpEntry(key, rid, k, n.rid(p)); c < 0 || c == 0 && n.leaf() {
			return off, p, i, c, nil
		}
		off = p + n.payload
	}
	return off, 0, n.count, 1, nil
}

// end walks on from entry i at offset off and returns the offset just past
// the last entry.
func (n node) end(off, i int) (int, error) {
	for ; i < n.count; i++ {
		_, pl, err := n.entry(off)
		if err != nil {
			return 0, err
		}
		off = pl + n.payload
	}
	return off, nil
}

// assertOrdered checks, in invariant builds, that n's entries are in
// order: a leaf's strictly by (key, rid), an inner node's separators
// non-decreasing by key (duplicate keys may straddle a split boundary).
func (n node) assertOrdered() {
	if !invariant.Enabled {
		return
	}
	var prev []byte
	var prevRID storage.RID
	off := headerSize
	for i := 0; i < n.count; i++ {
		key, pl, err := n.entry(off)
		invariant.Assertf(err == nil, "btree: unreadable entry %d: %v", i, err)
		if err != nil {
			return
		}
		r := n.rid(pl)
		if i > 0 && n.leaf() {
			invariant.Assertf(cmpEntry(prev, prevRID, key, r) < 0,
				"btree: leaf entries out of order at slot %d (key %x >= %x)", i, prev, key)
		} else if i > 0 {
			invariant.Assertf(bytes.Compare(prev, key) <= 0,
				"btree: separator keys out of order at slot %d (key %x > %x)", i, prev, key)
		}
		prev, prevRID, off = key, r, pl+n.payload
	}
}

// putHeader writes a node header at the start of d.
func putHeader(d []byte, typ byte, count int, link storage.PageID) {
	d[0] = typ
	binary.LittleEndian.PutUint16(d[1:3], uint16(count))
	binary.LittleEndian.PutUint32(d[3:7], uint32(link))
}

// putEntry encodes an entry at the start of dst and returns its length; an
// inner entry carries child.
func putEntry(dst, key []byte, rid storage.RID, child storage.PageID, inner bool) int {
	n := binary.PutUvarint(dst, uint64(len(key)))
	n += copy(dst[n:], key)
	binary.LittleEndian.PutUint32(dst[n:], uint32(rid.Page))
	binary.LittleEndian.PutUint16(dst[n+4:], rid.Slot)
	n += leafPayload
	if inner {
		binary.LittleEndian.PutUint32(dst[n:], uint32(child))
		n += innerPayload - leafPayload
	}
	return n
}

// cmpEntry orders leaf entries by (key, rid).
func cmpEntry(aKey []byte, aRID storage.RID, bKey []byte, bRID storage.RID) int {
	if c := bytes.Compare(aKey, bKey); c != 0 {
		return c
	}
	switch {
	case aRID.Page < bRID.Page:
		return -1
	case aRID.Page > bRID.Page:
		return 1
	case aRID.Slot < bRID.Slot:
		return -1
	case aRID.Slot > bRID.Slot:
		return 1
	}
	return 0
}

// splitResult carries a separator (composite key+rid) and the new right
// sibling page produced by a node split.
type splitResult struct {
	key   []byte
	rid   storage.RID
	child storage.PageID
}

var noSplit = splitResult{child: storage.InvalidPageID}

// Insert adds (key, rid). Inserting an exact duplicate pair is an error.
func (t *BTree) Insert(key []byte, rid storage.RID) error {
	if len(key) > maxKeyLen {
		return fmt.Errorf("btree: key of %d bytes exceeds max %d", len(key), maxKeyLen)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, err := t.insertAt(t.root, t.height, key, rid)
	if err != nil || sp.child == storage.InvalidPageID {
		return err
	}
	// Root split: grow the tree by one level.
	h, err := t.pool.NewPage(t.file)
	if err != nil {
		return err
	}
	defer h.Unpin()
	d := h.Data()
	putHeader(d, nodeInner, 1, sp.child)
	putEntry(d[headerSize:], sp.key, sp.rid, t.root, true)
	h.MarkDirty()
	t.root = h.Key().Page
	t.height++
	return t.syncMeta()
}

// insertAt descends to the leaf, inserts, and propagates splits upward.
func (t *BTree) insertAt(page storage.PageID, level int, key []byte, rid storage.RID) (splitResult, error) {
	h, err := t.pool.Pin(storage.PageKey{File: t.file, Page: page})
	if err != nil {
		return noSplit, err
	}
	defer h.Unpin()
	n, err := openNode(h.Data(), page, level == 1)
	if err != nil {
		return noSplit, err
	}
	off, pl, i, c, err := n.seek(key, rid)
	if err != nil {
		return noSplit, err
	}
	var buf [maxEntrySize]byte
	if n.leaf() {
		if c == 0 {
			return noSplit, fmt.Errorf("btree: duplicate entry at rid %v", rid)
		}
		return t.insertEntry(h, n, off, i, buf[:putEntry(buf[:], key, rid, 0, false)], 0, 0)
	}
	child := n.child(pl, i)
	sp, err := t.insertAt(child, level-1, key, rid)
	if err != nil || sp.child == storage.InvalidPageID {
		return noSplit, err
	}
	// Child split: the separator goes in at i over the old child, which
	// keeps the low half; the child link after it, entry i's own or the
	// rightmost, takes the new sibling.
	ent := buf[:putEntry(buf[:], sp.key, sp.rid, child, true)]
	sibAt := 3 // the rightmost link, bytes 3–7 of the header
	if i < n.count {
		sibAt = pl + len(ent) + leafPayload
	}
	return t.insertEntry(h, n, off, i, ent, sibAt, sp.child)
}

// insertEntry puts the encoded entry ent at offset off, as entry i, into
// node n on page h. It shifts the entries after it when they fit and
// splits n otherwise. A non-zero sibAt is the offset, in the node as it
// reads with ent in place, of a child link to set to sib.
func (t *BTree) insertEntry(h *storage.Handle, n node, off, i int, ent []byte, sibAt int, sib storage.PageID) (splitResult, error) {
	end, err := n.end(off, i)
	if err != nil {
		return noSplit, err
	}
	if end+len(ent) > len(n.d) {
		img := make([]byte, 0, end+len(ent))
		img = append(append(append(img, n.d[:off]...), ent...), n.d[off:end]...)
		if sibAt != 0 {
			binary.LittleEndian.PutUint32(img[sibAt:], uint32(sib))
		}
		return t.split(h, n, img)
	}
	copy(n.d[off+len(ent):], n.d[off:end])
	copy(n.d[off:], ent)
	if sibAt != 0 {
		binary.LittleEndian.PutUint32(n.d[sibAt:], uint32(sib))
	}
	n.count++
	binary.LittleEndian.PutUint16(n.d[1:3], uint16(n.count))
	h.MarkDirty()
	n.assertOrdered()
	return noSplit, nil
}

// split divides img, the image of node n on page h with one entry more than
// fits, between h and a new right sibling. The left half keeps the first
// half of the entries by count or, when that leaves a half too long for a
// page, the entries that end before the middle of the bytes. A leaf's
// separator is the right half's first entry; an inner node's middle
// separator moves up, and its child becomes the left half's rightmost.
func (t *BTree) split(h *storage.Handle, n node, img []byte) (splitResult, error) {
	v := node{d: img, page: n.page, count: n.count + 1, payload: n.payload}
	// offs[i] is the offset of entry i, offs[v.count] the end of the last.
	offs := make([]int, v.count+1)
	offs[0] = headerSize
	for i := range v.count {
		_, pl, err := v.entry(offs[i])
		if err != nil {
			return noSplit, err
		}
		offs[i+1] = pl + v.payload
	}
	up := 1 // the entries a split leaves out of both halves
	if v.leaf() {
		up = 0
	}
	fits := func(mid int) bool {
		return offs[mid] <= len(n.d) && headerSize+len(img)-offs[mid+up] <= len(n.d)
	}
	mid := v.count / 2
	if !fits(mid) {
		// Cut before the entry that crosses the middle of the bytes: the
		// left half then holds at most half of them and the right at most
		// half plus one entry, both well within a page.
		for mid = 1; mid < v.count-1 && 2*(offs[mid+1]-headerSize) <= len(img)-headerSize; mid++ {
		}
		if !fits(mid) {
			return noSplit, fmt.Errorf("btree: node overflow: no split of %d entries fits a page", v.count)
		}
	}
	at := offs[mid]
	sepKey, sepPL, err := v.entry(at)
	if err != nil {
		return noSplit, err
	}
	sep := splitResult{key: sepKey, rid: v.rid(sepPL)}
	rh, err := t.pool.NewPage(t.file)
	if err != nil {
		return noSplit, err
	}
	defer rh.Unpin()
	sep.child = rh.Key().Page
	typ, leftLink := img[0], sep.child
	if !v.leaf() {
		leftLink = v.child(sepPL, mid)
	}
	rd := rh.Data()
	putHeader(rd, typ, v.count-mid-up, v.link())
	copy(rd[headerSize:], img[offs[mid+up]:])
	rh.MarkDirty()
	putHeader(n.d, typ, mid, leftLink)
	copy(n.d[headerSize:], img[headerSize:at])
	clear(n.d[at:])
	h.MarkDirty()
	if invariant.Enabled {
		right, err := openNode(rd, sep.child, v.leaf())
		invariant.Assertf(err == nil, "btree: split wrote an unreadable node: %v", err)
		right.assertOrdered()
		n.count = mid
		n.assertOrdered()
	}
	return sep, nil
}

// descend returns the child of inner page whose subtree holds the
// composite (key, rid), or its leftmost child.
func (t *BTree) descend(page storage.PageID, key []byte, rid storage.RID, leftmost bool) (storage.PageID, error) {
	h, err := t.pool.Pin(storage.PageKey{File: t.file, Page: page})
	if err != nil {
		return storage.InvalidPageID, err
	}
	defer h.Unpin()
	n, err := openNode(h.Data(), page, false)
	if err != nil {
		return storage.InvalidPageID, err
	}
	if leftmost {
		if n.count == 0 {
			return n.link(), nil
		}
		_, pl, err := n.entry(headerSize)
		if err != nil {
			return storage.InvalidPageID, err
		}
		return n.child(pl, 0), nil
	}
	_, pl, i, _, err := n.seek(key, rid)
	if err != nil {
		return storage.InvalidPageID, err
	}
	return n.child(pl, i), nil
}

// Delete removes the exact (key, rid) entry and closes its gap in the
// leaf. Nodes may underflow: the engine's workloads are
// bulk-load-then-query, and an underfull B+Tree remains correct, just
// slightly larger.
func (t *BTree) Delete(key []byte, rid storage.RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	page := t.root
	for level := t.height; level > 1; level-- {
		var err error
		if page, err = t.descend(page, key, rid, false); err != nil {
			return err
		}
	}
	h, err := t.pool.Pin(storage.PageKey{File: t.file, Page: page})
	if err != nil {
		return err
	}
	defer h.Unpin()
	n, err := openNode(h.Data(), page, true)
	if err != nil {
		return err
	}
	off, pl, i, c, err := n.seek(key, rid)
	if err != nil {
		return err
	}
	if c != 0 {
		return fmt.Errorf("btree: delete: entry not found")
	}
	next := pl + leafPayload
	end, err := n.end(next, i+1)
	if err != nil {
		return err
	}
	copy(n.d[off:], n.d[next:end])
	clear(n.d[end-(next-off) : end])
	binary.LittleEndian.PutUint16(n.d[1:3], uint16(n.count-1))
	h.MarkDirty()
	return nil
}

// Search returns the RIDs stored under key.
func (t *BTree) Search(key []byte) ([]storage.RID, error) {
	var out []storage.RID
	err := t.Range(key, key, func(_ []byte, rid storage.RID) bool {
		out = append(out, rid)
		return true
	})
	return out, err
}

// Range visits all entries with lo <= key <= hi in key order. A nil lo or
// hi leaves that bound open. The callback returns false to stop early. The
// key it is handed aliases the pinned page: it is valid only during the
// call, and a callback that keeps it must copy it.
func (t *BTree) Range(lo, hi []byte, fn func(key []byte, rid storage.RID) bool) error {
	_, err := t.RangeCount(lo, hi, fn)
	return err
}

// RangeCount is Range plus the number of index pages visited (root-to-leaf
// path plus leaf chain), which the executor reports for cost accounting.
func (t *BTree) RangeCount(lo, hi []byte, fn func(key []byte, rid storage.RID) bool) (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pagesVisited := 0
	page := t.root
	for level := t.height; level > 1; level-- {
		var err error
		if page, err = t.descend(page, lo, storage.RID{}, lo == nil); err != nil {
			return pagesVisited, err
		}
		pagesVisited++
	}
	for page != storage.InvalidPageID {
		var err error
		if page, err = t.scanLeaf(page, lo, hi, fn); err != nil {
			return pagesVisited, err
		}
		pagesVisited++
	}
	return pagesVisited, nil
}

// scanLeaf calls fn on leaf page's entries within [lo, hi] and returns the
// next leaf to scan: InvalidPageID once hi, fn or the chain has ended.
func (t *BTree) scanLeaf(page storage.PageID, lo, hi []byte, fn func(key []byte, rid storage.RID) bool) (storage.PageID, error) {
	h, err := t.pool.Pin(storage.PageKey{File: t.file, Page: page})
	if err != nil {
		return storage.InvalidPageID, err
	}
	defer h.Unpin()
	n, err := openNode(h.Data(), page, true)
	if err != nil {
		return storage.InvalidPageID, err
	}
	off := headerSize
	for i := 0; i < n.count; i++ {
		key, pl, err := n.entry(off)
		if err != nil {
			return storage.InvalidPageID, err
		}
		off = pl + leafPayload
		if lo != nil && bytes.Compare(key, lo) < 0 {
			continue
		}
		if hi != nil && bytes.Compare(key, hi) > 0 || !fn(key, n.rid(pl)) {
			return storage.InvalidPageID, nil
		}
	}
	return n.link(), nil
}
