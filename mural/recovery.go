package mural

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/mural-db/mural/internal/catalog"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

// walFileName is the single write-ahead log of an on-disk database.
const walFileName = "wal.log"

// defaultCheckpointBytes triggers an automatic checkpoint once the WAL
// grows past this size after a commit.
const defaultCheckpointBytes = 4 << 20

// RecoveryStats reports what crash recovery did at Open.
type RecoveryStats struct {
	// BatchesReplayed counts committed WAL batches redone into data files.
	BatchesReplayed int
	// PagesApplied counts page images written during replay.
	PagesApplied int
	// TornTail reports that the log ended in a truncated or corrupt frame
	// (discarded, as an in-flight batch at crash time).
	TornTail bool
	// OrphansRemoved counts data files deleted because no recovered catalog
	// references them (debris of uncommitted DDL).
	OrphansRemoved int
}

// openWALWithRecovery opens dir's write-ahead log, replays every committed
// batch into the data files — the catalog's file among them — and truncates
// the log. It returns the log positioned for appending. The caller loads the
// catalog afterwards, so it observes the recovered state.
func openWALWithRecovery(cfg *Config) (*storage.WAL, RecoveryStats, error) {
	var stats RecoveryStats
	f, err := os.OpenFile(filepath.Join(cfg.Dir, walFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, stats, fmt.Errorf("mural: open wal: %w", err)
	}
	var lf storage.LogFile = f
	if cfg.WALWrap != nil {
		lf = cfg.WALWrap(lf)
	}
	scan, err := storage.ScanWAL(lf)
	if err != nil {
		_ = lf.Close()
		return nil, stats, fmt.Errorf("mural: scan wal: %w", err)
	}
	stats.TornTail = scan.Torn
	if err := checkFormat(cfg.Dir, scan); err != nil {
		_ = lf.Close()
		return nil, stats, err
	}

	// Redo: write every committed page image into its data file, in commit
	// order. Later images of the same page overwrite earlier ones, so the
	// files converge on the last committed state.
	files := make(map[storage.FileID]*os.File)
	for _, b := range scan.Batches {
		for _, pr := range b.Pages {
			df, ok := files[pr.File]
			if !ok {
				df, err = os.OpenFile(dataFilePath(cfg.Dir, pr.File), os.O_RDWR|os.O_CREATE, 0o644)
				if err != nil {
					closeAll(files)
					_ = lf.Close()
					return nil, stats, fmt.Errorf("mural: recover: %w", err)
				}
				files[pr.File] = df
			}
			if _, err := df.WriteAt(pr.Image, int64(pr.Page)*storage.PageSize); err != nil {
				closeAll(files)
				_ = lf.Close()
				return nil, stats, fmt.Errorf("mural: recover page %d of file %d: %w", pr.Page, pr.File, err)
			}
			stats.PagesApplied++
		}
		stats.BatchesReplayed++
	}
	// Durability order: data files, then the directory (the log's entry and
	// those of files redo created), and only then may the log be truncated
	// — a crash anywhere in between replays again.
	for _, df := range files {
		if err := df.Sync(); err != nil {
			closeAll(files)
			_ = lf.Close()
			return nil, stats, fmt.Errorf("mural: recover: sync: %w", err)
		}
	}
	closeAll(files)
	if err := syncDir(cfg.Dir); err != nil {
		_ = lf.Close()
		return nil, stats, err
	}
	wal := storage.NewWAL(lf)
	if err := wal.Truncate(); err != nil {
		_ = lf.Close()
		return nil, stats, err
	}
	return wal, stats, nil
}

// checkFormat refuses, with ErrFormat, a directory of another on-disk format
// before recovery writes anything: one that holds a catalog.json (format 2
// and older), or whose catalog page 0 — the log's newest image of it, else
// file_0.db's — names another format.
func checkFormat(dir string, scan *storage.WALScan) error {
	if _, err := os.Stat(filepath.Join(dir, "catalog.json")); err == nil {
		return fmt.Errorf("%w: the catalog is in catalog.json (format 2 or older), this build reads format %d", ErrFormat, types.RecordFormat)
	}
	var page []byte
	for _, b := range scan.Batches {
		for _, pr := range b.Pages {
			if pr.File == catalog.File && pr.Page == 0 {
				page = pr.Image
			}
		}
	}
	if page == nil {
		data, err := os.ReadFile(dataFilePath(dir, catalog.File))
		if err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("mural: read catalog: %w", err)
		}
		if len(data) < storage.PageSize {
			return nil // no page yet
		}
		page = data
	}
	_, err := catalog.CheckFormat(page[storage.PageSize-storage.PagePayload:])
	return err
}

// syncDir makes the entries of dir durable: a file created since its
// directory's last sync may vanish in a power cut, though its bytes synced.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("mural: sync dir: %w", err)
	}
	return errors.Join(d.Sync(), d.Close())
}

func closeAll(files map[storage.FileID]*os.File) {
	for _, f := range files {
		_ = f.Close()
	}
}

// dataFilePath names the page file of one table or index.
func dataFilePath(dir string, id storage.FileID) string {
	return filepath.Join(dir, fmt.Sprintf("file_%d.db", id))
}

// removeOrphanFiles deletes the data files that no table or index of the
// (recovered) catalog attached when Open opened them: the debris of DDL
// batches that never committed. Removing them matters beyond tidiness —
// file ids of uncommitted DDL are reused after recovery, and a stale
// non-empty file would corrupt the reused id.
func (e *Engine) removeOrphanFiles() (int, error) {
	referenced := make(map[string]bool, len(e.disks))
	for id := range e.disks {
		referenced[filepath.Base(dataFilePath(e.cfg.Dir, id))] = true
	}
	matches, err := filepath.Glob(filepath.Join(e.cfg.Dir, "file_*.db"))
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, m := range matches {
		if referenced[filepath.Base(m)] {
			continue
		}
		if err := os.Remove(m); err != nil {
			return removed, fmt.Errorf("mural: remove orphan %s: %w", m, err)
		}
		removed++
	}
	return removed, nil
}

// commitBatch commits the open batch. A commit that fails has rolled the
// batch's pages back before it returns. An in-memory database commits the
// same batches; its commit logs nothing and writes the batch's pages through
// (storage.Pool.SealBatch).
//
// Audited blocking-under-lock: the group-commit wait runs with e.mu held.
// DML write paths avoid this via commitGrouped (which releases e.mu around
// the wait); the callers that remain here are DDL and CREATE INDEX's
// backfill chunks, where the schema mutation being committed must stay
// serialized against every other session anyway.
//
//lint:lock-held-io DDL commits hold e.mu across the group-commit wait by design
func (e *Engine) commitBatch() error {
	s, err := e.pool.SealBatch()
	if err != nil {
		return err
	}
	return s.Wait()
}

// commitGrouped commits the open batch, under a WAL by its group commit:
// the batch is sealed under e.mu, then the engine lock is RELEASED for the
// fsync wait so concurrent sessions' commits share one Sync. A commit that
// fails has rolled the batch's pages back before it returns, and the
// table's in-memory structures are reopened over them. Called with e.mu
// held; returns with e.mu held.
//
// Audited lock hand-off: the Unlock below pairs with the caller's Lock, and
// the matching re-Lock before return restores the caller's critical
// section. The unlock window covers only s.Wait(), which touches pool+WAL
// state exclusively and releases the seal before it returns (a checkpoint
// or DROP TABLE may be draining sealed batches under e.mu) — nothing
// protected by e.mu moves while it is released, and reopenTableLocked runs
// only after the lock is retaken.
//
//lint:lock-handoff callers hold e.mu; the fsync wait runs with it released so commits group
func (e *Engine) commitGrouped(table string) error {
	s, err := e.pool.SealBatch()
	if err == nil {
		e.mu.Unlock()
		err = s.Wait()
		e.mu.Lock()
	}
	if err != nil {
		if rerr := e.reopenTableLocked(table); rerr != nil {
			return fmt.Errorf("%w (and reopening %q after rollback: %v)", err, table, rerr)
		}
	}
	return err
}

// rollbackBatch aborts an open batch that a statement gives up before its
// commit: the pool rolls every dirtied page back to its last committed
// image, and the in-memory structures over the named table (heap,
// persistent indexes, q-gram lists) are reopened from the rolled-back pages
// so memory agrees with storage again. This is what makes a failed
// statement leave no trace.
func (e *Engine) rollbackBatch(table string) error {
	firstErr := e.pool.AbortBatch()
	if err := e.reopenTableLocked(table); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// reopenTableLocked reloads one table's in-memory structures (heap handle,
// persistent indexes, q-gram lists) from its pages after a rollback. Called
// with e.mu held.
func (e *Engine) reopenTableLocked(table string) error {
	if table == "" {
		return nil
	}
	t, ok := e.cat.TableByName(table)
	if !ok {
		return nil
	}
	var firstErr error
	if _, open := e.heaps[table]; open {
		_, keyBytes := keyedColumn(t)
		h, err := storage.OpenHeap(e.pool, t.File, keyBytes)
		if err != nil {
			firstErr = err
		} else {
			e.heaps[table] = h
		}
	}
	for _, ix := range e.cat.IndexesOn(table, "") {
		if _, open := e.indexes[ix.Name]; !open {
			continue
		}
		if err := e.loadIndex(ix); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// checkpointLocked flushes every dirty page, syncs the data files — the
// catalog's among them — and the directory that names them, and truncates
// the WAL. After it returns, the data files alone carry the full database
// state. Called with e.mu held and no batch open.
//
// Audited blocking-under-lock: the data-file syncs and the WAL truncate
// MUST run under e.mu — a checkpoint is a stop-the-world point, and any
// commit slipping between FlushAll and Truncate would be lost from both
// the files and the log. Checkpoints are rare (WAL-growth triggered or
// explicit), so the stall is bounded and deliberate.
//
//lint:lock-held-io checkpoint fsyncs are a deliberate stop-the-world under e.mu
func (e *Engine) checkpointLocked() error {
	// Let in-flight group commits finish: their pages are held (no-steal)
	// until durable, and the WAL truncate below must not discard staged
	// commit records. New seals cannot start while e.mu is held; failed
	// waiters release their seal before retaking e.mu, so this cannot
	// deadlock.
	e.pool.WaitSealedDrained()
	if err := e.pool.FlushAll(); err != nil {
		return err
	}
	for _, d := range e.disks {
		if err := d.Sync(); err != nil {
			return err
		}
	}
	if e.wal == nil {
		return nil
	}
	if err := syncDir(e.cfg.Dir); err != nil {
		return err
	}
	return e.wal.Truncate()
}

// maybeCheckpointLocked checkpoints when the WAL has outgrown the
// configured threshold. Called with e.mu held after a successful commit.
func (e *Engine) maybeCheckpointLocked() error {
	if e.wal == nil || e.wal.Size() < e.checkpointBytes() {
		return nil
	}
	return e.checkpointLocked()
}

func (e *Engine) checkpointBytes() int64 {
	if e.cfg.CheckpointBytes > 0 {
		return e.cfg.CheckpointBytes
	}
	return defaultCheckpointBytes
}

// Checkpoint forces a checkpoint: all committed work moves into the data
// files and the WAL is truncated. Servers call it on graceful shutdown;
// long-running loaders can call it to bound recovery time.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.checkpointLocked()
}

// LastRecovery reports what crash recovery did when this engine opened
// (zero value for in-memory databases or clean starts).
func (e *Engine) LastRecovery() RecoveryStats { return e.recovery }
