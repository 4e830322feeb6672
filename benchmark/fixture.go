package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/mural-db/mural/internal/client"
	"github.com/mural-db/mural/internal/server"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/mural"
)

const (
	// insertBatch is the rows per INSERT statement of the bulk load.
	insertBatch = 500
	// fetchSize is the rows per fetch round trip of every connection. The
	// client's default of 1 would make a scan's latency a count of round
	// trips; an application that reads whole result sets raises it.
	fetchSize = 256
	// commitDelay is oltp_mixed's group-commit window. The flush policy is
	// one flush of the log per commit group, and INSERT returns after it.
	commitDelay = 200 * time.Microsecond
	// flushCost is what a flush of the log or of a data file costs. The
	// devices of oltp_mixed are modelled: writes go to real files, but Sync
	// waits this long without calling fsync. The sandbox's own fsync moves
	// between 0.2 and 3 ms with what its other tenants do to the disk, which
	// made every write metric follow the neighbours and not the engine;
	// host.fsync_ms reports the real one. The crash check holds the engine
	// to the model: what was written before a completed Sync survives, and
	// nothing else does.
	flushCost = time.Millisecond
	// walFile is the engine's log file inside its directory; the crash check
	// has to know it to cut it at the last synced length.
	walFile = "wal.log"
)

// fixture is one loaded engine with a server in front and connections dialed.
type fixture struct {
	eng   *mural.Engine
	srv   *server.Server
	conns []*client.Conn
	dir   string
	wal   *walRecorder
	disk  *diskRecorder
	// Set-up phases; total is first CREATE TABLE to last connection dialed.
	total, load, index, analyze, reopen time.Duration
}

// setUp builds the fixture of w under dir (used by on-disk workloads only).
// Data generation and the oracle are done before and are not in the time.
func setUp(w *workload, dir string, timed bool) (*fixture, error) {
	f := &fixture{wal: &walRecorder{}, disk: &diskRecorder{}}
	cfg := mural.Config{WordNet: w.net}
	// devices gives the engine about to be opened its own recorders.
	devices := func() {
		wal, disk := &walRecorder{timed: timed}, &diskRecorder{timed: timed}
		f.wal, f.disk = wal, disk
		cfg.WALWrap = func(lf storage.LogFile) storage.LogFile { wal.LogFile = lf; return wal }
		cfg.DiskWrap = func(_ string, d storage.Disk) storage.Disk { return &modelledDisk{Disk: d, rec: disk} }
	}
	if w.disk {
		f.dir = dir
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		cfg.Dir, cfg.CommitDelay = dir, commitDelay
		devices()
	}
	start := time.Now()
	eng, err := mural.Open(cfg)
	if err != nil {
		return nil, err
	}
	f.eng = eng
	exec := func(q string) error {
		if _, err := f.eng.Exec(q); err != nil {
			return fmt.Errorf("%.60s: %w", q, err)
		}
		return nil
	}
	t := time.Now()
	for _, tb := range w.tables {
		if err := exec(tb.ddl); err != nil {
			return nil, errors.Join(err, f.close())
		}
		for i := 0; i < len(tb.rows); i += insertBatch {
			j := min(i+insertBatch, len(tb.rows))
			if err := exec("INSERT INTO " + tb.name + " VALUES " + strings.Join(tb.rows[i:j], ",")); err != nil {
				return nil, errors.Join(err, f.close())
			}
		}
	}
	f.load = time.Since(t)
	if w.index != "" {
		t = time.Now()
		if err := exec(w.index); err != nil {
			return nil, errors.Join(err, f.close())
		}
		f.index = time.Since(t)
	}
	t = time.Now()
	if err := exec("ANALYZE"); err != nil {
		return nil, errors.Join(err, f.close())
	}
	f.analyze = time.Since(t)
	if w.disk {
		// CREATE INDEX on a table larger than the pool fails (no-steal
		// batches pin every dirty page), so the database is built with the
		// default pool, closed, and reopened with the small one.
		t = time.Now()
		if err := f.eng.Close(); err != nil {
			return nil, err
		}
		cfg.BufferPages = w.sc.oltpFrames
		devices()
		if f.eng, err = mural.Open(cfg); err != nil {
			return nil, err
		}
		f.reopen = time.Since(t)
	}
	f.srv = server.New(f.eng)
	addr, err := f.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, f.close())
	}
	// Two connections always: the second one is idle except where a workload
	// or the scaling probe uses it.
	for i := 0; i < 2; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		c.FetchSize = fetchSize
		f.conns = append(f.conns, c)
	}
	f.total = time.Since(start)
	return f, nil
}

// hangUp closes the connections and the server but leaves the engine as it
// is, the way a killed process would.
func (f *fixture) hangUp() error {
	var err error
	for _, c := range f.conns {
		err = errors.Join(err, c.Close())
	}
	f.conns = nil
	if f.srv != nil {
		err = errors.Join(err, f.srv.Close())
		f.srv = nil
	}
	return err
}

func (f *fixture) close() error {
	err := f.hangUp()
	if f.eng != nil {
		err = errors.Join(err, f.eng.Close())
		f.eng = nil
	}
	if f.dir != "" {
		err = errors.Join(err, os.RemoveAll(f.dir))
	}
	return err
}

// walRecorder is the log device of oltp_mixed. It tracks how long the log was
// when the last completed Sync began, which is all the crash check lets
// survive, and Sync costs flushCost. When timed it also keeps each Sync's
// duration as the engine saw it.
type walRecorder struct {
	storage.LogFile
	timed bool

	mu      sync.Mutex
	length  int64
	synced  int64
	written int64
	syncs   []time.Duration
}

func (r *walRecorder) WriteAt(p []byte, off int64) (int, error) {
	n, err := r.LogFile.WriteAt(p, off)
	r.mu.Lock()
	r.written += int64(n)
	if end := off + int64(n); end > r.length {
		r.length = end
	}
	r.mu.Unlock()
	return n, err
}

func (r *walRecorder) Truncate(size int64) error {
	err := r.LogFile.Truncate(size)
	if err == nil {
		r.mu.Lock()
		r.length = size
		if r.synced > size {
			r.synced = size
		}
		r.mu.Unlock()
	}
	return err
}

func (r *walRecorder) Sync() error {
	r.mu.Lock()
	upTo := r.length
	r.mu.Unlock()
	var start time.Time
	if r.timed {
		start = time.Now()
	}
	flush()
	r.mu.Lock()
	if upTo > r.synced {
		r.synced = upTo
	}
	if r.timed {
		r.syncs = append(r.syncs, time.Since(start))
	}
	r.mu.Unlock()
	return nil
}

func (r *walRecorder) snapshot() (synced, written int64, syncs []time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.synced, r.written, append([]time.Duration(nil), r.syncs...)
}

// diskRecorder counts the page writes of every data file and, when timed,
// keeps the duration of each page read. A data file's Sync costs flushCost
// too.
type diskRecorder struct {
	timed bool

	mu     sync.Mutex
	writes int64
	reads  []time.Duration
}

type modelledDisk struct {
	storage.Disk
	rec *diskRecorder
}

func (d *modelledDisk) ReadPage(id storage.PageID, buf []byte) error {
	if !d.rec.timed {
		return d.Disk.ReadPage(id, buf)
	}
	start := time.Now()
	err := d.Disk.ReadPage(id, buf)
	took := time.Since(start)
	d.rec.mu.Lock()
	d.rec.reads = append(d.rec.reads, took)
	d.rec.mu.Unlock()
	return err
}

func (d *modelledDisk) WritePage(id storage.PageID, buf []byte) error {
	d.rec.mu.Lock()
	d.rec.writes++
	d.rec.mu.Unlock()
	return d.Disk.WritePage(id, buf)
}

func (d *modelledDisk) Sync() error {
	flush()
	return nil
}

// flush waits flushCost busily, not by sleeping: when the host is busy it
// wakes a sleeping virtual CPU late, which stretched a 1 ms sleep to 3 ms and
// more in whole runs, and with it every write. (Yielding with
// runtime.Gosched in the loop is worse: the two scheduler threads hand the
// goroutine back and forth through futex calls, and the steal counter of the
// whole machine rose to 60 %.) The CPU time the wait burns is in
// oltp_mixed's cpu_ms_per_stmt, about a quarter of it.
func flush() {
	for start := time.Now(); time.Since(start) < flushCost; {
	}
}

func (r *diskRecorder) snapshot() (writes int64, reads []time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.writes, append([]time.Duration(nil), r.reads...)
}

// crashCheck plays a power cut on f's directory: the data files are copied
// as the operating system has them, the log is cut at the length the last
// completed Sync covered (killing the process would leave the page cache,
// and with it every unflushed write, intact), and the copy is opened. Every
// single-row INSERT the workload saw acknowledged must be readable there. The
// engine behind f must have been left without Close.
func crashCheck(f *fixture, w *workload) (lost int, recovery time.Duration, err error) {
	synced, _, _ := f.wal.snapshot()
	crashed := f.dir + ".crash"
	if err := os.MkdirAll(crashed, 0o755); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(crashed)
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		limit := int64(-1)
		if e.Name() == walFile {
			limit = synced
		}
		if err := copyFile(filepath.Join(crashed, e.Name()), filepath.Join(f.dir, e.Name()), limit); err != nil {
			return 0, 0, err
		}
	}
	start := time.Now()
	eng, err := mural.Open(mural.Config{Dir: crashed})
	if err != nil {
		return 0, 0, fmt.Errorf("reopen after crash: %w", err)
	}
	recovery = time.Since(start)
	defer eng.Close()
	res, err := eng.Exec(fmt.Sprintf("SELECT id FROM %s WHERE id >= %d", w.sink, w.sinkRows))
	if err != nil {
		return 0, recovery, err
	}
	have := make(map[int]bool, len(res.Rows))
	for _, t := range res.Rows {
		have[int(t[0].Int())] = true
	}
	for _, acks := range w.acks {
		for _, i := range acks {
			if !have[w.sinkRows+i] {
				lost++
			}
		}
	}
	return lost, recovery, nil
}

// copyFile copies src to dst, at most limit bytes when limit >= 0.
func copyFile(dst, src string, limit int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	var r io.Reader = in
	if limit >= 0 {
		r = io.LimitReader(in, limit)
	}
	if _, err := io.Copy(out, r); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
