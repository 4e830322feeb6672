package mural

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"testing"

	"github.com/mural-db/mural/internal/storage"
)

// powerCut puts a write-back cache under every device of an engine: each
// device keeps the writes since its last Sync in an overlay that its reads
// see, and cut drops every overlay, as a power loss drops what the
// operating system had not flushed. What survives a cut is exactly what a
// completed Sync covered.
type powerCut struct {
	mu    sync.Mutex
	disks []*cutDisk
	logs  []*cutLog
}

func (p *powerCut) config(dir string) Config {
	return Config{
		Dir: dir,
		// No automatic checkpoint: a test decides where its checkpoints are.
		CheckpointBytes: 64 << 20,
		DiskWrap: func(_ string, d storage.Disk) storage.Disk {
			c := &cutDisk{inner: d, pages: d.NumPages(), pending: map[storage.PageID][]byte{}}
			p.mu.Lock()
			p.disks = append(p.disks, c)
			p.mu.Unlock()
			return c
		},
		WALWrap: func(f storage.LogFile) storage.LogFile {
			c := &cutLog{inner: f}
			buf := make([]byte, storage.PageSize)
			for {
				n, err := f.ReadAt(buf, int64(len(c.buf)))
				c.buf = append(c.buf, buf[:n]...)
				if err != nil {
					break
				}
			}
			c.lo = int64(len(c.buf))
			p.mu.Lock()
			p.logs = append(p.logs, c)
			p.mu.Unlock()
			return c
		},
	}
}

// cut loses every unsynced write and closes the devices under the
// abandoned engine.
func (p *powerCut) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range p.disks {
		d.mu.Lock()
		d.pending = nil
		d.mu.Unlock()
		_ = d.inner.Close()
	}
	for _, l := range p.logs {
		_ = l.inner.Close()
	}
}

// cutDisk is a data file under a write-back cache.
type cutDisk struct {
	mu      sync.Mutex
	inner   storage.Disk
	pages   storage.PageID // allocated, synced or not
	pending map[storage.PageID][]byte
}

func (d *cutDisk) ReadPage(id storage.PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.pending[id]; ok {
		copy(buf, p)
		return nil
	}
	return d.inner.ReadPage(id, buf)
}

func (d *cutDisk) WritePage(id storage.PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id >= d.pages {
		return fmt.Errorf("write page %d beyond end (%d pages)", id, d.pages)
	}
	d.pending[id] = append([]byte(nil), buf[:storage.PageSize]...)
	return nil
}

func (d *cutDisk) Allocate() (storage.PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.pages
	d.pages++
	d.pending[id] = make([]byte, storage.PageSize)
	return id, nil
}

func (d *cutDisk) NumPages() storage.PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

func (d *cutDisk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]storage.PageID, 0, len(d.pending))
	for id := range d.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		for d.inner.NumPages() <= id {
			if _, err := d.inner.Allocate(); err != nil {
				return err
			}
		}
		if err := d.inner.WritePage(id, d.pending[id]); err != nil {
			return err
		}
	}
	d.pending = map[storage.PageID][]byte{}
	return d.inner.Sync()
}

func (d *cutDisk) Close() error { return d.inner.Close() }

// cutLog is the log under a write-back cache: buf is the log as the process
// sees it, and the inner file differs from it at lo and beyond.
type cutLog struct {
	mu    sync.Mutex
	inner storage.LogFile
	buf   []byte
	lo    int64
}

func (l *cutLog) ReadAt(p []byte, off int64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if off >= int64(len(l.buf)) {
		return 0, io.EOF
	}
	n := copy(p, l.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (l *cutLog) WriteAt(p []byte, off int64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(l.buf)) {
		l.buf = append(l.buf, make([]byte, end-int64(len(l.buf)))...)
	}
	copy(l.buf[off:], p)
	l.lo = min(l.lo, off)
	return len(p), nil
}

func (l *cutLog) Truncate(size int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if size <= int64(len(l.buf)) {
		l.buf = l.buf[:size]
	} else {
		l.buf = append(l.buf, make([]byte, size-int64(len(l.buf)))...)
	}
	l.lo = min(l.lo, size)
	return nil
}

func (l *cutLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.inner.Truncate(int64(len(l.buf))); err != nil {
		return err
	}
	if _, err := l.inner.WriteAt(l.buf[l.lo:], l.lo); err != nil {
		return err
	}
	l.lo = int64(len(l.buf))
	return l.inner.Sync()
}

func (l *cutLog) Close() error { return l.inner.Close() }

// A power cut loses no acknowledged statement, DDL included: the schema is
// pages of file 0, made durable by the commit that logs them and by the
// checkpoint that syncs them before it cuts the log. After a cut that
// follows a checkpoint, the reopen finds the schema in file 0 and the later
// rows in the log; after a cut with no checkpoint at all, it finds
// everything in the log. Either way the indexes agree with the heap.
func TestPowerCutKeepsAcknowledgedWork(t *testing.T) {
	for _, c := range []struct {
		name       string
		checkpoint bool
	}{{"after a checkpoint", true}, {"DDL only in the log", false}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			var pc powerCut
			e, err := Open(pc.config(dir))
			if err != nil {
				t.Fatal(err)
			}
			model := dbState{rows: map[int64]string{}}
			run := func(s wlStmt) {
				t.Helper()
				if _, err := e.Exec(s.sql); err != nil {
					t.Fatalf("%s: %v", s.sql, err)
				}
				s.apply(&model)
			}
			run(wlStmt{sql: `CREATE TABLE t (id INT, name UNITEXT)`, apply: func(s *dbState) { s.exists = true }})
			for id := int64(1); id <= 20; id++ {
				run(insStmt(id))
			}
			run(wlStmt{sql: `CREATE INDEX crash_id ON t (id) USING BTREE`, apply: func(*dbState) {}})
			run(wlStmt{sql: `CREATE INDEX crash_name ON t (name) USING MTREE`, apply: func(*dbState) {}})
			if c.checkpoint {
				if err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			for id := int64(21); id <= 40; id++ {
				run(insStmt(id))
			}
			run(delStmt(5))
			pc.cut()

			e, err = Open(Config{Dir: dir})
			if err != nil {
				t.Fatalf("reopen after the cut: %v", err)
			}
			defer e.Close()
			if rec := e.LastRecovery(); rec.BatchesReplayed == 0 {
				t.Errorf("recovery replayed nothing: %+v", rec)
			}
			if got, err := readState(e); err != nil || !got.equal(model) {
				t.Fatalf("after the cut: %s (%v)\nwant: %s", got, err, model)
			}
			if n := len(e.Catalog().Indexes()); n != 2 {
				t.Errorf("after the cut the catalog has %d indexes, want 2", n)
			}
			checkIndexAgreement(t, e, c.name)
		})
	}
}

// A closed on-disk database is its log and its data files: the catalog is
// file 0's pages, not a file of its own.
func TestClosedDatabaseIsLogAndDataFiles(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec(`CREATE TABLE t (id INT, name UNITEXT)`)
	e.MustExec(`INSERT INTO t VALUES (1, unitext('nehru', english))`)
	e.MustExec(`CREATE INDEX t_id ON t (id) USING BTREE`)
	e.MustExec(`ANALYZE`)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	dataFile := regexp.MustCompile(`^file_[0-9]+\.db$`)
	var names []string
	for _, ent := range entries {
		names = append(names, ent.Name())
		if ent.Name() != walFileName && !dataFile.MatchString(ent.Name()) {
			t.Errorf("closed database holds %q, neither the log nor a data file", ent.Name())
		}
	}
	if _, err := os.Stat(dataFilePath(dir, 0)); err != nil {
		t.Errorf("no catalog file among %v: %v", names, err)
	}
}

// A DDL statement that committed reports success, whatever else the
// directory holds: an entry named catalog.json.tmp — a directory here, which
// no file can be written over — used to fail CREATE TABLE after its commit.
func TestDDLCommitsBesideStrayCatalogTmp(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "catalog.json.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(`CREATE TABLE t (id INT)`); err != nil {
		t.Fatalf("CREATE TABLE: %v", err)
	}
	e.MustExec(`INSERT INTO t VALUES (1)`)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err = Open(Config{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if res := e.MustExec(`SELECT count(*) FROM t`); res.Rows[0][0].Int() != 1 {
		t.Errorf("rows after reopen = %v, want 1", res.Rows)
	}
}
