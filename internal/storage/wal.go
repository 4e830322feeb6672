// Write-ahead log. The WAL makes multi-page mutations atomic and durable:
// a batch of full page after-images is appended to the log and fsynced
// before any of those pages may reach their data files. Recovery scans the log, validates every frame with a CRC,
// stops at the first torn or corrupt frame, and redoes exactly the batches
// whose commit record survived — partially logged batches leave no trace.
//
// The log is a flat sequence of frames:
//
//	[4] payload length (LE uint32)
//	[4] IEEE CRC-32 of the payload
//	[n] payload
//
// The payload's first byte is the record type; an LSN is simply the byte
// offset of a frame in the file. Record types:
//
//	walRecPage   [1 type][4 file][4 page][PageSize image]
//	walRecCommit [1 type][8 commit sequence number]
//
// The catalog is pages of data file 0, so DDL logs page images too. Type 2,
// format 2's catalog snapshot, is refused with ErrFormat.
//
// Compared to PostgreSQL's xlog this is a deliberately small design: full
// page images only (no logical records, so no per-access-method redo code),
// a single log file truncated at every checkpoint (no segment recycling),
// and redo-only recovery (the no-steal buffer pool policy makes undo
// unnecessary).
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"github.com/mural-db/mural/internal/invariant"
)

// LogFile is the byte-granular device under the WAL. *os.File satisfies it;
// tests substitute fault-injecting wrappers that kill or tear writes.
type LogFile interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// WAL record types.
const (
	walRecPage    = byte(1)
	walRecRetired = byte(2)
	walRecCommit  = byte(3)
)

// ErrFormat reports a data directory of another on-disk format than
// types.RecordFormat, the one this build reads.
var ErrFormat = errors.New("storage: data directory of another on-disk format")

const walFrameHeader = 8 // length + CRC

// maxWALPayload bounds a single record so a corrupt length field cannot
// trigger a huge allocation during recovery.
const maxWALPayload = 16 << 20

// WALPageRec is one full-page after-image in the log.
type WALPageRec struct {
	File  FileID
	Page  PageID
	Image []byte // full PageSize bytes, checksum prefix included
}

// WALBatch is one committed batch reconstructed by ScanWAL.
type WALBatch struct {
	Seq   uint64
	Pages []WALPageRec
}

// WALScan is the result of scanning a log.
type WALScan struct {
	// Batches are the committed batches, in commit order.
	Batches []WALBatch
	// ValidBytes is the offset just past the last intact committed frame.
	ValidBytes int64
	// Torn reports that the scan stopped at a truncated or corrupt frame
	// (the expected state after a crash mid-append).
	Torn bool
}

// ScanWAL reads the log from offset zero, returning every fully committed
// batch. It never fails on a torn tail — a short, truncated, or CRC-invalid
// frame simply ends the scan. It returns I/O errors from the device itself,
// and ErrFormat for an intact record of a retired type.
func ScanWAL(f LogFile) (*WALScan, error) {
	res := &WALScan{}
	var off int64
	var pending WALBatch
	head := make([]byte, walFrameHeader)
	for {
		if _, err := io.ReadFull(io.NewSectionReader(f, off, walFrameHeader), head); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				res.Torn = err == io.ErrUnexpectedEOF
				return res, nil
			}
			return nil, fmt.Errorf("storage: wal scan at %d: %w", off, err)
		}
		length := binary.LittleEndian.Uint32(head[0:4])
		want := binary.LittleEndian.Uint32(head[4:8])
		if length == 0 || length > maxWALPayload {
			res.Torn = true
			return res, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(io.NewSectionReader(f, off+walFrameHeader, int64(length)), payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				res.Torn = true
				return res, nil
			}
			return nil, fmt.Errorf("storage: wal scan at %d: %w", off, err)
		}
		if crc32.ChecksumIEEE(payload) != want {
			res.Torn = true
			return res, nil
		}
		switch payload[0] {
		case walRecPage:
			if len(payload) != 1+8+PageSize {
				res.Torn = true
				return res, nil
			}
			img := make([]byte, PageSize)
			copy(img, payload[9:])
			pending.Pages = append(pending.Pages, WALPageRec{
				File:  FileID(binary.LittleEndian.Uint32(payload[1:5])),
				Page:  PageID(binary.LittleEndian.Uint32(payload[5:9])),
				Image: img,
			})
		case walRecRetired:
			return nil, fmt.Errorf("%w: the log holds a catalog snapshot record (format 2)", ErrFormat)
		case walRecCommit:
			if len(payload) != 1+8 {
				res.Torn = true
				return res, nil
			}
			pending.Seq = binary.LittleEndian.Uint64(payload[1:9])
			res.Batches = append(res.Batches, pending)
			pending = WALBatch{}
			res.ValidBytes = off + walFrameHeader + int64(length)
		default:
			// Unknown record type: treat as corruption, stop here.
			res.Torn = true
			return res, nil
		}
		off += walFrameHeader + int64(length)
	}
}

// WALStats counts log traffic.
type WALStats struct {
	Commits    uint64
	PageImages uint64
	Syncs      uint64
}

// WAL is an open write-ahead log positioned for appending. It is safe for
// concurrent use: each append is atomic with respect to other appends and
// to Truncate, and durability waits are grouped — concurrent committers
// staged behind one in-flight fsync are all made durable by a single
// Sync call (group commit). That is why Stats().Syncs can be far below
// Stats().Commits under concurrent write load.
type WAL struct {
	mu     sync.Mutex
	cond   *sync.Cond // broadcast when syncedTo advances or a rewind happens
	f      LogFile
	size   int64
	seq    uint64
	stats  WALStats
	latest map[PageKey]int64 // offset of the last durably committed image per page
	// staged holds the image offsets of appended-but-not-yet-synced batches,
	// newest last. A rollback must restore a page to the newest *staged*
	// image, not the newest durable one: a page may carry the sealed (but
	// still syncing) changes of an earlier batch that will commit.
	staged map[PageKey][]int64
	// unsyncedEnds are the end offsets of commit records appended but not yet
	// fsynced, in append order. A failed group sync turns the suffix beyond
	// syncedTo into failed commits.
	unsyncedEnds []int64
	// lastOff tracks the previous frame's offset for the append-only
	// monotonicity invariant (checked builds only).
	lastOff int64

	// Group-commit state.
	syncedTo int64  // log prefix known durable
	syncing  bool   // a leader is inside f.Sync
	epoch    uint64 // bumped by rewind; stale-epoch waiters failed
	// pendingAborts blocks appends after a failed group sync until every
	// failed committer has rolled its pages back (PendingCommit.Abandon);
	// otherwise a new batch could capture rolled-back page content into a
	// fresh, succeeding commit.
	pendingAborts int
	// inflight counts staged commits whose Wait has not returned yet.
	// Truncate (checkpoint) must not reset the log under them: the leader
	// releases mu during f.Sync, so without this gate a concurrent Truncate
	// could rewind syncedTo past a waiter's end, leaving it re-syncing
	// forever.
	inflight  int
	failCause error // the sync error behind the current epoch's rewind
	// broken poisons the log permanently: a rewind's truncate failed, so the
	// on-disk suffix may hold commit records for batches reported as failed.
	broken error
}

// NewWAL wraps an empty (or just-truncated) log file for appending.
// Callers that may hold a non-empty log must run ScanWAL + recovery first
// and truncate before appending (Engine.Open does this).
func NewWAL(f LogFile) *WAL {
	w := &WAL{f: f, latest: make(map[PageKey]int64), staged: make(map[PageKey][]int64), lastOff: -1}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Size returns the current log length in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Stats returns a snapshot of the log counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// frame appends one record at the current end without syncing.
// Called with w.mu held.
func (w *WAL) frame(payload []byte) (int64, error) {
	head := make([]byte, walFrameHeader)
	binary.LittleEndian.PutUint32(head[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[4:8], crc32.ChecksumIEEE(payload))
	off := w.size
	invariant.Assertf(off > w.lastOff,
		"storage: wal frame offset %d not beyond previous frame at %d (log is append-only)", off, w.lastOff)
	if _, err := w.f.WriteAt(head, off); err != nil {
		return 0, fmt.Errorf("storage: wal append: %w", err)
	}
	if _, err := w.f.WriteAt(payload, off+walFrameHeader); err != nil {
		return 0, fmt.Errorf("storage: wal append: %w", err)
	}
	w.size = off + walFrameHeader + int64(len(payload))
	w.lastOff = off
	mWALBytes.Add(walFrameHeader + int64(len(payload)))
	return off, nil
}

// PendingCommit is a batch appended to the log but not yet known durable.
// Wait blocks until a group fsync covers it (or fails); a failed commit must
// be Abandoned after its pages are rolled back so the log accepts appends
// again.
type PendingCommit struct {
	w     *WAL
	end   int64  // log offset that must be durable for this commit
	epoch uint64 // epoch at append time; a rewind bumps the WAL's epoch past it
	// imageOff records where each page image of this batch landed, for
	// promotion into latest on durability.
	imageOff  map[PageKey]int64
	abandoned bool
}

// StageBatch appends a batch — page images and the commit record — WITHOUT
// waiting for durability. The returned PendingCommit's Wait joins the
// group-commit protocol. The images are copied into the log before return;
// callers may reuse the buffers.
//
// On an append error the partially written frames are truncated away, so the
// log never carries a headless prefix that a later commit record could
// mistakenly adopt.
func (w *WAL) StageBatch(pages []WALPageRec) (*PendingCommit, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return nil, fmt.Errorf("storage: wal unusable: %w", w.broken)
	}
	if w.pendingAborts > 0 {
		return nil, fmt.Errorf("storage: wal rejecting appends until %d failed commits finish rolling back (cause: %v)",
			w.pendingAborts, w.failCause)
	}
	start, startLast := w.size, w.lastOff
	undo := func(err error) (*PendingCommit, error) {
		// Erase the partial batch; a commit record appended later must not
		// adopt these frames.
		if terr := w.f.Truncate(start); terr != nil {
			w.broken = fmt.Errorf("truncate of partial append failed: %v (after: %w)", terr, err)
		}
		w.size, w.lastOff = start, startLast
		return nil, err
	}
	imageOff := make(map[PageKey]int64, len(pages))
	payload := make([]byte, 1+8+PageSize)
	for _, pr := range pages {
		if len(pr.Image) != PageSize {
			return undo(fmt.Errorf("storage: wal: page image of %d bytes", len(pr.Image)))
		}
		payload[0] = walRecPage
		binary.LittleEndian.PutUint32(payload[1:5], uint32(pr.File))
		binary.LittleEndian.PutUint32(payload[5:9], uint32(pr.Page))
		copy(payload[9:], pr.Image)
		off, err := w.frame(payload)
		if err != nil {
			return undo(err)
		}
		imageOff[PageKey{File: pr.File, Page: pr.Page}] = off + walFrameHeader + 9
		w.stats.PageImages++
		mWALPageImages.Inc()
	}
	w.seq++
	invariant.Assertf(w.seq > 0, "storage: wal commit sequence number wrapped to zero")
	commit := make([]byte, 1+8)
	commit[0] = walRecCommit
	binary.LittleEndian.PutUint64(commit[1:9], w.seq)
	if _, err := w.frame(commit); err != nil {
		return undo(err)
	}
	for k, off := range imageOff {
		w.staged[k] = append(w.staged[k], off)
	}
	w.unsyncedEnds = append(w.unsyncedEnds, w.size)
	w.inflight++
	return &PendingCommit{w: w, end: w.size, epoch: w.epoch, imageOff: imageOff}, nil
}

// Wait blocks until this commit is durable, joining the group-commit
// protocol: if no fsync is in flight the caller becomes the leader and syncs
// the whole appended prefix at once; otherwise it waits for a leader's sync
// to cover it. One fsync therefore retires every batch staged before it
// started, and the batches staged while it runs retire together on the next.
// There is deliberately no window in which a leader waits for followers: Go
// cannot sleep for less than about a millisecond, which would cost a lone
// commit more than its fsync on a fast device.
//
// On error the batch is NOT durable and never will be: the log was rewound
// past it, and the caller must roll its pages back and then call Abandon.
func (p *PendingCommit) Wait() error {
	w := p.w
	w.mu.Lock()
	defer w.mu.Unlock()
	defer func() {
		w.inflight--
		w.cond.Broadcast() // a checkpoint may be waiting for inflight to drain
	}()
	for {
		if w.syncedTo >= p.end {
			// Durable. Promote this batch's images to "latest committed" and
			// drop their staged entries.
			w.stats.Commits++
			mWALCommits.Inc()
			for k, off := range p.imageOff {
				w.dropStagedLocked(k, off)
				if cur, ok := w.latest[k]; !ok || off > cur {
					w.latest[k] = off
				}
			}
			return nil
		}
		if w.broken != nil {
			return fmt.Errorf("storage: wal unusable: %w", w.broken)
		}
		if w.epoch != p.epoch {
			return fmt.Errorf("storage: wal group sync failed; commit rolled back: %w", w.failCause)
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		// Become the leader for everything appended so far.
		w.syncing = true
		target := w.size
		w.mu.Unlock()
		err := w.f.Sync()
		w.mu.Lock()
		w.syncing = false
		if err != nil {
			w.rewindLocked(fmt.Errorf("storage: wal sync: %w", err))
			w.cond.Broadcast()
			continue // epoch now differs; the loop reports the failure
		}
		w.stats.Syncs++
		mWALSyncs.Inc()
		if target > w.syncedTo {
			w.syncedTo = target
		}
		// Forget commit records the sync retired.
		keep := w.unsyncedEnds[:0]
		for _, end := range w.unsyncedEnds {
			if end > w.syncedTo {
				keep = append(keep, end)
			}
		}
		w.unsyncedEnds = keep
		w.cond.Broadcast()
	}
}

// Abandon releases a failed commit's claim on the log. Once every failed
// committer has rolled its pages back and abandoned, appends resume. Safe to
// call more than once and on commits that succeeded (both are no-ops).
func (p *PendingCommit) Abandon() {
	w := p.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if p.abandoned || p.epoch == w.epoch || p.end <= w.syncedTo {
		return
	}
	p.abandoned = true
	if w.pendingAborts > 0 {
		w.pendingAborts--
	}
}

// rewindLocked handles a failed group sync: every commit record appended
// beyond the durable prefix is truncated away (otherwise the NEXT successful
// sync would make batches durable whose callers were told they failed), the
// epoch is bumped so their waiters observe the failure, and appends are
// blocked until those callers roll their pages back. Called with w.mu held.
func (w *WAL) rewindLocked(cause error) {
	w.epoch++
	w.failCause = cause
	failed := 0
	for _, end := range w.unsyncedEnds {
		if end > w.syncedTo {
			failed++
		}
	}
	w.unsyncedEnds = w.unsyncedEnds[:0]
	w.pendingAborts += failed
	for k, offs := range w.staged {
		keep := offs[:0]
		for _, off := range offs {
			if off < w.syncedTo {
				keep = append(keep, off)
			}
		}
		if len(keep) == 0 {
			delete(w.staged, k)
		} else {
			w.staged[k] = keep
		}
	}
	if err := w.f.Truncate(w.syncedTo); err != nil {
		// The unsynced suffix (with its commit records) could not be erased;
		// any further append might make it durable. Refuse all future use.
		w.broken = fmt.Errorf("rewind truncate failed: %v (after %v)", err, cause)
		return
	}
	w.size = w.syncedTo
	w.lastOff = w.syncedTo - 1
}

// dropStagedLocked removes one staged image offset. Called with w.mu held.
func (w *WAL) dropStagedLocked(k PageKey, off int64) {
	offs := w.staged[k]
	for i, o := range offs {
		if o == off {
			offs = append(offs[:i], offs[i+1:]...)
			break
		}
	}
	if len(offs) == 0 {
		delete(w.staged, k)
	} else {
		w.staged[k] = offs
	}
}

// ReadLatestImage fills buf (PageSize bytes) with the most recently logged
// image of the page — staged (sealed, awaiting its group sync) images win
// over durable ones — reporting whether one exists. The buffer pool uses it
// to roll an aborted batch's pages back without touching the data file:
// rolling back to a sealed predecessor's content is correct because that
// predecessor either commits (content stands) or fails and restores its own
// pages in turn.
func (w *WAL) ReadLatestImage(key PageKey, buf []byte) (bool, error) {
	w.mu.Lock()
	off, ok := w.latest[key]
	if staged := w.staged[key]; len(staged) > 0 {
		if last := staged[len(staged)-1]; !ok || last > off {
			off, ok = last, true
		}
	}
	w.mu.Unlock()
	if !ok {
		return false, nil
	}
	if _, err := io.ReadFull(io.NewSectionReader(w.f, off, PageSize), buf[:PageSize]); err != nil {
		return false, fmt.Errorf("storage: wal read image: %w", err)
	}
	return true, nil
}

// Truncate empties the log (the checkpoint operation). The caller must have
// made all logged work durable in the data files first.
func (w *WAL) Truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Wait out in-flight group commits: the leader syncs with mu released,
	// and resetting size/syncedTo under it (or its followers) would strand
	// their durability watermarks.
	for w.syncing || w.inflight > 0 {
		w.cond.Wait()
	}
	invariant.Assertf(len(w.unsyncedEnds) == 0,
		"storage: wal truncated with %d commits still awaiting group sync", len(w.unsyncedEnds))
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: wal truncate: %w", err)
	}
	//lint:lock-held-io a checkpoint's truncate: the loop above waited out every group commit, and releasing w.mu before this fsync would let an append land between Truncate(0) and the sync
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("storage: wal sync: %w", err)
	}
	w.stats.Syncs++
	mWALSyncs.Inc()
	mWALCheckpoints.Inc()
	w.size = 0
	w.latest = make(map[PageKey]int64)
	w.staged = make(map[PageKey][]int64)
	w.syncedTo = 0
	w.lastOff = -1
	return nil
}

// Close closes the underlying device.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// SortPageRecs orders page records deterministically (by file, then page).
// Batch commit uses it so that identical workloads produce identical logs.
func SortPageRecs(recs []WALPageRec) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].File != recs[j].File {
			return recs[i].File < recs[j].File
		}
		return recs[i].Page < recs[j].Page
	})
}

// MemLog is an in-memory LogFile for tests.
type MemLog struct {
	mu  sync.Mutex
	buf []byte
}

// NewMemLog returns an empty in-memory log device.
func NewMemLog() *MemLog { return &MemLog{} }

// ReadAt implements io.ReaderAt.
func (m *MemLog) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= int64(len(m.buf)) {
		return 0, io.EOF
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt.
func (m *MemLog) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(m.buf)) {
		grown := make([]byte, end)
		copy(grown, m.buf)
		m.buf = grown
	}
	copy(m.buf[off:], p)
	return len(p), nil
}

// Truncate implements LogFile.
func (m *MemLog) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if size <= int64(len(m.buf)) {
		m.buf = m.buf[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, m.buf)
		m.buf = grown
	}
	return nil
}

// Sync implements LogFile.
func (m *MemLog) Sync() error { return nil }

// Close implements LogFile.
func (m *MemLog) Close() error { return nil }

// Len returns the current log length.
func (m *MemLog) Len() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.buf))
}
