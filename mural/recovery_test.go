package mural

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/mural-db/mural/internal/catalog"
	"github.com/mural-db/mural/internal/storage"
)

// crashHarness wires a shared crash fuse into an engine's data files and
// WAL via Config.DiskWrap/WALWrap, and tracks the inner devices so an
// abandoned ("crashed") engine does not leak file descriptors across the
// hundreds of matrix iterations.
type crashHarness struct {
	state   *storage.CrashState
	mu      sync.Mutex
	closers []func() error
	names   []string // the data files wrapped, as DiskWrap names them
}

func newCrashHarness(limit int) *crashHarness {
	return &crashHarness{state: storage.NewCrashState(limit)}
}

func (h *crashHarness) config(dir string) Config {
	return Config{
		Dir:         dir,
		BufferPages: 128,
		// Small enough that the workload crosses a few auto-checkpoints, so
		// the matrix also crashes inside FlushAll/truncate sequences.
		CheckpointBytes: 512 << 10,
		DiskWrap: func(name string, d storage.Disk) storage.Disk {
			h.mu.Lock()
			h.closers = append(h.closers, d.Close)
			h.names = append(h.names, name)
			h.mu.Unlock()
			return storage.NewCrashDisk(d, h.state)
		},
		WALWrap: func(f storage.LogFile) storage.LogFile {
			h.mu.Lock()
			h.closers = append(h.closers, f.Close)
			h.mu.Unlock()
			return storage.NewCrashLog(f, h.state)
		},
	}
}

// abandon closes the inner devices without flushing anything — the process
// is gone, the kernel reclaims the descriptors, the disk keeps whatever
// had been written.
func (h *crashHarness) abandon() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, c := range h.closers {
		_ = c()
	}
	h.closers = nil
}

// dbState is the model the crash matrix checks recovered databases
// against: whether table t exists, and its live rows (id → romanized
// name).
type dbState struct {
	exists bool
	rows   map[int64]string
}

func (s dbState) clone() dbState {
	c := dbState{exists: s.exists, rows: make(map[int64]string, len(s.rows))}
	for k, v := range s.rows {
		c.rows[k] = v
	}
	return c
}

func (s dbState) equal(o dbState) bool {
	if s.exists != o.exists || len(s.rows) != len(o.rows) {
		return false
	}
	for k, v := range s.rows {
		if o.rows[k] != v {
			return false
		}
	}
	return true
}

func (s dbState) String() string {
	if !s.exists {
		return "<no table>"
	}
	ids := make([]int64, 0, len(s.rows))
	for id := range s.rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%d=%s ", id, s.rows[id])
	}
	return strings.TrimSpace(b.String())
}

// wlStmt is one workload statement plus its effect on the model.
type wlStmt struct {
	sql   string
	apply func(s *dbState)
}

var crashNames = []string{"Nehru", "Gandhi", "Tagore", "Raman", "Bose", "Naidu", "Patel"}

func insStmt(id int64) wlStmt {
	name := crashNames[int(id)%len(crashNames)]
	return wlStmt{
		sql:   fmt.Sprintf("INSERT INTO t VALUES (%d, unitext('%s', english))", id, name),
		apply: func(s *dbState) { s.rows[id] = name },
	}
}

func ins2Stmt(a, b int64) wlStmt {
	na, nb := crashNames[int(a)%len(crashNames)], crashNames[int(b)%len(crashNames)]
	return wlStmt{
		sql: fmt.Sprintf("INSERT INTO t VALUES (%d, unitext('%s', english)), (%d, unitext('%s', english))",
			a, na, b, nb),
		apply: func(s *dbState) { s.rows[a] = na; s.rows[b] = nb },
	}
}

func delStmt(id int64) wlStmt {
	return wlStmt{
		sql:   fmt.Sprintf("DELETE FROM t WHERE id = %d", id),
		apply: func(s *dbState) { delete(s.rows, id) },
	}
}

// crashWorkload builds the ≥50-statement mixed INSERT/DELETE/CREATE INDEX
// workload the matrix replays: every prefix of its write operations is a
// crash site.
func crashWorkload() []wlStmt {
	w := []wlStmt{{
		sql:   `CREATE TABLE t (id INT, name UNITEXT)`,
		apply: func(s *dbState) { s.exists = true },
	}}
	for id := int64(1); id <= 16; id++ {
		w = append(w, insStmt(id))
	}
	w = append(w, ins2Stmt(17, 18), ins2Stmt(19, 20))
	w = append(w, wlStmt{sql: `CREATE INDEX crash_id ON t (id) USING BTREE`, apply: func(*dbState) {}})
	for id := int64(21); id <= 32; id++ {
		w = append(w, insStmt(id))
	}
	for _, id := range []int64{3, 7, 11, 22} {
		w = append(w, delStmt(id))
	}
	w = append(w, wlStmt{sql: `CREATE INDEX crash_name ON t (name) USING MTREE`, apply: func(*dbState) {}})
	for id := int64(33); id <= 44; id++ {
		w = append(w, insStmt(id))
	}
	w = append(w, wlStmt{
		sql: `DELETE FROM t WHERE id <= 2`,
		apply: func(s *dbState) {
			delete(s.rows, 1)
			delete(s.rows, 2)
		},
	})
	for id := int64(45); id <= 50; id++ {
		w = append(w, insStmt(id))
	}
	return w
}

// readState reopens-free reads table t out of a (recovered) engine.
func readState(e *Engine) (dbState, error) {
	res, err := e.Exec(`SELECT id, name FROM t`)
	if err != nil {
		if strings.Contains(err.Error(), "no such table") {
			return dbState{exists: false, rows: map[int64]string{}}, nil
		}
		return dbState{}, err
	}
	s := dbState{exists: true, rows: make(map[int64]string, len(res.Rows))}
	for _, row := range res.Rows {
		s.rows[row[0].Int()] = row[1].UniText().Text
	}
	return s, nil
}

// checkIndexAgreement compares index-driven plans against pure scans on
// the recovered database: any divergence means an index disagrees with
// its heap.
func checkIndexAgreement(t *testing.T, e *Engine, label string) {
	t.Helper()
	render := func(res *Result) string {
		lines := make([]string, 0, len(res.Rows))
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			lines = append(lines, strings.Join(parts, "|"))
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	for _, probe := range []int64{1, 5, 17, 28, 40, 50} {
		q := fmt.Sprintf("SELECT id, name FROM t WHERE id = %d", probe)
		e.MustExec(`SET enable_indexscan = on`)
		on, err := e.Exec(q)
		if err != nil {
			t.Fatalf("%s: index probe id=%d: %v", label, probe, err)
		}
		e.MustExec(`SET enable_indexscan = off`)
		off, err := e.Exec(q)
		if err != nil {
			t.Fatalf("%s: scan probe id=%d: %v", label, probe, err)
		}
		if render(on) != render(off) {
			t.Fatalf("%s: B-tree disagrees with heap for id=%d:\nindex: %s\nscan:  %s",
				label, probe, render(on), render(off))
		}
	}
	e.MustExec(`SET enable_indexscan = on`)
	for _, probe := range []string{"Nehru", "Gandhi"} {
		q := fmt.Sprintf("SELECT id FROM t WHERE name LEXEQUAL '%s' THRESHOLD 1 IN english", probe)
		e.MustExec(`SET enable_mtree = on`)
		on, err := e.Exec(q)
		if err != nil {
			t.Fatalf("%s: mtree probe %q: %v", label, probe, err)
		}
		e.MustExec(`SET enable_mtree = off`)
		off, err := e.Exec(q)
		if err != nil {
			t.Fatalf("%s: mtree scan probe %q: %v", label, probe, err)
		}
		if render(on) != render(off) {
			t.Fatalf("%s: M-tree disagrees with heap for %q:\nindex: %s\nscan:  %s",
				label, probe, render(on), render(off))
		}
	}
	e.MustExec(`SET enable_mtree = on`)
}

// TestCrashMatrix is the central recovery test: it counts the write
// operations W the full workload performs, then for every prefix N in
// [0, W] runs the workload against a fresh database whose devices die
// after N writes (every third crash site tears the triggering write),
// reopens the database cleanly, and checks the recovered state. The
// catalog's page writes (file_0) are crash sites like any data file's.
//
// The acceptable states are exact: every statement acknowledged before the
// crash must be fully present, nothing later may leave a trace. The one
// ambiguity a write-ahead scheme genuinely has is the statement that was
// in flight at the crash — its commit record may or may not have become
// durable before the failing operation — so the first *failed* statement
// is accepted either fully applied or fully absent. Never partially.
//
// The sites run concurrently, at most crashSitesAtOnce at a time: each one
// waits mostly on fsync. Each starts its subtest from a goroutine of its
// own, so neither -parallel nor -cpu 1 serialises them.
func TestCrashMatrix(t *testing.T) {
	workload := crashWorkload()
	if len(workload) < 50 {
		t.Fatalf("workload has %d statements, want >= 50", len(workload))
	}

	// Pass 1: count total write operations with a fuse that never trips.
	counter := newCrashHarness(-1)
	dir := t.TempDir()
	e, err := Open(counter.config(dir))
	if err != nil {
		t.Fatalf("counting pass: open: %v", err)
	}
	full := dbState{rows: map[int64]string{}}
	for i, s := range workload {
		if _, err := e.Exec(s.sql); err != nil {
			t.Fatalf("counting pass: statement %d (%s): %v", i, s.sql, err)
		}
		s.apply(&full)
	}
	totalWrites := counter.state.Writes()
	if err := e.Close(); err != nil {
		t.Fatalf("counting pass: close: %v", err)
	}
	counter.abandon()
	verifySite(t, "full-run", dir, []dbState{full})

	if totalWrites < len(workload) {
		t.Fatalf("suspicious write count %d for %d statements", totalWrites, len(workload))
	}
	if !slices.Contains(counter.names, "file_0") {
		t.Fatalf("the catalog's file is not behind the fuse: wrapped %v", counter.names)
	}
	t.Logf("workload: %d statements, %d write operations", len(workload), totalWrites)

	stride := 1
	if testing.Short() {
		stride = 17
	}

	// Pass 2: crash after every write prefix.
	sem := make(chan struct{}, crashSitesAtOnce)
	var wg sync.WaitGroup
	for n := 0; n <= totalWrites; n += stride {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			t.Run(fmt.Sprintf("crash@%d", n), func(t *testing.T) { crashSite(t, workload, n) })
		}()
	}
	wg.Wait()
}

// crashSitesAtOnce bounds the crash matrix's concurrent sites.
const crashSitesAtOnce = 8

// crashSite runs the workload against a fresh database whose devices die
// after n writes, then checks what a clean reopen recovers.
func crashSite(t *testing.T, workload []wlStmt, n int) {
	h := newCrashHarness(n)
	if n%3 == 2 {
		h.state.SetTear(true)
	}
	dir := t.TempDir()
	model := dbState{rows: map[int64]string{}}
	acceptable := []dbState{}
	e, err := Open(h.config(dir))
	if err == nil {
		failed := -1
		for i, s := range workload {
			if _, err := e.Exec(s.sql); err != nil {
				failed = i
				break
			}
			s.apply(&model)
		}
		acceptable = append(acceptable, model)
		if failed >= 0 {
			// Boundary ambiguity: the failing statement may have become
			// durable before the crash hit a post-commit step.
			b := model.clone()
			workload[failed].apply(&b)
			acceptable = append(acceptable, b)
		}
	} else {
		// Crashed inside Open itself: nothing may survive.
		acceptable = append(acceptable, model)
	}
	h.abandon()
	verifySite(t, fmt.Sprintf("crash@%d", n), dir, acceptable)
}

// verifySite reopens dir without fault injection and checks the recovered
// database matches one of the acceptable states, with indexes agreeing
// with the heap.
func verifySite(t *testing.T, label, dir string, acceptable []dbState) {
	t.Helper()
	e, err := Open(Config{Dir: dir, BufferPages: 128})
	if err != nil {
		t.Fatalf("%s: recovery open failed: %v", label, err)
	}
	defer e.Close()
	got, err := readState(e)
	if err != nil {
		t.Fatalf("%s: reading recovered state: %v", label, err)
	}
	ok := false
	for _, want := range acceptable {
		if got.equal(want) {
			ok = true
			break
		}
	}
	if !ok {
		msg := fmt.Sprintf("%s: recovered state does not match any acceptable state\ngot:  %s", label, got)
		for i, want := range acceptable {
			msg += fmt.Sprintf("\nwant[%d]: %s", i, want)
		}
		t.Fatal(msg)
	}
	if got.exists {
		checkIndexAgreement(t, e, label)
	}
}

// tornTailSetup builds a database whose 30 committed inserts live only in
// the WAL (the engine is abandoned without Close, so no page ever reached
// the data files), and returns the WAL path.
func tornTailSetup(t *testing.T) (dir, walPath string) {
	t.Helper()
	dir = t.TempDir()
	h := newCrashHarness(-1) // fuse never trips; harness only tracks FDs
	cfg := h.config(dir)
	cfg.CheckpointBytes = 64 << 20 // keep everything in the WAL
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec(`CREATE TABLE t (id INT, name UNITEXT)`)
	for i := 0; i < 30; i++ {
		e.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, unitext('%s', english))",
			i, crashNames[i%len(crashNames)]))
	}
	h.abandon() // crash: no Close, no checkpoint
	return dir, filepath.Join(dir, walFileName)
}

func tornTailIDs(t *testing.T, dir string) (ids []int64, rec RecoveryStats) {
	t.Helper()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("recovery open failed: %v", err)
	}
	defer e.Close()
	res, err := e.Exec(`SELECT id FROM t ORDER BY id`)
	if err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
	for _, row := range res.Rows {
		ids = append(ids, row[0].Int())
	}
	return ids, e.LastRecovery()
}

// TestTornTailTruncated chops bytes off the end of the WAL — the classic
// crash-mid-append — and checks recovery lands exactly on the last intact
// commit.
func TestTornTailTruncated(t *testing.T) {
	dir, wal := tornTailSetup(t)
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-37); err != nil {
		t.Fatal(err)
	}
	ids, rec := tornTailIDs(t, dir)
	if !rec.TornTail {
		t.Error("recovery did not report the torn tail")
	}
	// The final insert's batch (page image + commit, far more than 37
	// bytes) lost its tail: ids 0..28 survive, 29 is gone.
	if len(ids) != 29 {
		t.Fatalf("recovered %d rows, want 29 (ids: %v)", len(ids), ids)
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("recovered ids not the committed prefix: %v", ids)
		}
	}
}

// TestTornTailBitFlip corrupts a byte inside the final WAL record; the CRC
// must reject it and recovery must stop at the last intact commit without
// panicking.
func TestTornTailBitFlip(t *testing.T) {
	dir, wal := tornTailSetup(t)
	buf, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-10] ^= 0x40 // inside the final commit frame
	if err := os.WriteFile(wal, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	ids, rec := tornTailIDs(t, dir)
	if !rec.TornTail {
		t.Error("recovery did not report the corrupt tail")
	}
	if len(ids) != 29 {
		t.Fatalf("recovered %d rows, want 29 (ids: %v)", len(ids), ids)
	}
}

// TestTornMiddleBitFlip flips a byte deep inside the log. Redo must stop
// at the corrupt frame: the recovered rows are exactly some committed
// prefix of the workload, never a gappy subset.
func TestTornMiddleBitFlip(t *testing.T) {
	dir, wal := tornTailSetup(t)
	buf, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x01
	if err := os.WriteFile(wal, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	ids, rec := tornTailIDs(t, dir)
	if !rec.TornTail {
		t.Error("recovery did not report the corruption")
	}
	if len(ids) >= 30 {
		t.Fatalf("corrupt log recovered %d rows, want a strict prefix of 30", len(ids))
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("recovered ids not a committed prefix: %v", ids)
		}
	}
}

// TestRecoveryReplaysAbandonedWAL is the plain redo path: commits that
// never reached the data files come back from the log.
func TestRecoveryReplaysAbandonedWAL(t *testing.T) {
	dir, _ := tornTailSetup(t)
	ids, rec := tornTailIDs(t, dir)
	if len(ids) != 30 {
		t.Fatalf("recovered %d rows, want all 30", len(ids))
	}
	if rec.BatchesReplayed == 0 || rec.PagesApplied == 0 {
		t.Errorf("recovery stats show no replay: %+v", rec)
	}
	if rec.TornTail {
		t.Errorf("clean log reported torn: %+v", rec)
	}
	// A second reopen after the clean close must be a no-op recovery.
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if rec := e.LastRecovery(); rec.BatchesReplayed != 0 {
		t.Errorf("checkpointed database still replayed %d batches", rec.BatchesReplayed)
	}
	res := e.MustExec(`SELECT count(*) FROM t`)
	if res.Rows[0][0].Int() != 30 {
		t.Errorf("rows lost across clean reopen: %v", res.Rows)
	}
}

// Settings are not durable state: a database closed after SETs reopens with
// Config's defaults, and its catalog's pages carry no setting.
func TestSettingsNotDurable(t *testing.T) {
	dir := t.TempDir()
	for round := 0; round < 2; round++ {
		e, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range map[string]string{"statement_timeout": "0", "enable_mtree": "on"} {
			if got := showSetting(t, e.sess, name); got != want {
				t.Errorf("open %d: SHOW %s = %q, want the default %q", round, name, got, want)
			}
		}
		if round == 0 {
			e.MustExec(`CREATE TABLE t (id INT)`)
		}
		e.MustExec(`INSERT INTO t VALUES (1)`)
		e.MustExec(`SET statement_timeout = 5`)
		e.MustExec(`SET enable_mtree = off`)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if img, err := os.ReadFile(dataFilePath(dir, catalog.File)); err != nil || bytes.Contains(img, []byte("timeout")) || bytes.Contains(img, []byte("mtree")) {
		t.Errorf("catalog pages carry settings (err %v):\n%s", err, img)
	}
}
