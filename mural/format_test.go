package mural

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/catalog"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

// A data directory of another on-disk format is refused with ErrFormat
// before Open recovers, loads or attaches anything: no data file is opened,
// and the log is left as it was. Another format is a catalog page 0 whose
// header has no format number, or another number — on disk, or as the log's
// newest image of the page, which recovery would install — and a directory
// of format 2 or older: its catalog is a catalog.json, and its log may carry
// catalog snapshot records (type 2). A directory of this build's format
// opens, recovers and reads as before.
func TestOpenRefusesOtherFormat(t *testing.T) {
	// formatDir writes a closed database of this build's format, with a
	// UNITEXT row, and returns its directory and its catalog's page 0.
	formatDir := func(t *testing.T) (string, []byte) {
		dir := t.TempDir()
		e, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		e.MustExec(`CREATE TABLE t (id INT, name UNITEXT)`)
		e.MustExec(`INSERT INTO t VALUES (1, unitext('nehru', english))`)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		page, err := os.ReadFile(dataFilePath(dir, catalog.File))
		if err != nil {
			t.Fatal(err)
		}
		page = page[:storage.PageSize]
		if got := binary.LittleEndian.Uint32(page[4:]); got != types.RecordFormat {
			t.Fatalf("catalog page 0 format = %d, want %d", got, types.RecordFormat)
		}
		return dir, page
	}
	// withFormat returns page with its header's format set, and its checksum
	// stamped as the pool stamps it.
	withFormat := func(page []byte, format uint32) []byte {
		page = append([]byte(nil), page...)
		binary.LittleEndian.PutUint32(page[4:], format)
		binary.LittleEndian.PutUint32(page, crc32.ChecksumIEEE(page[4:]))
		return page
	}
	// logPage commits a batch holding one page image of the catalog's page 0
	// to dir's log.
	logPage := func(t *testing.T, dir string, page []byte) {
		f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		p, err := storage.NewWAL(f).StageBatch([]storage.WALPageRec{{File: catalog.File, Page: 0, Image: page}})
		if err == nil {
			err = p.Wait()
		}
		if err := errors.Join(err, f.Close()); err != nil {
			t.Fatal(err)
		}
	}
	// refused opens dir, which must fail with ErrFormat having attached no
	// data file and left the log as it was.
	refused := func(t *testing.T, dir string) {
		t.Helper()
		walPath := filepath.Join(dir, walFileName)
		before, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		attached := 0
		_, err = Open(Config{Dir: dir, DiskWrap: func(_ string, d storage.Disk) storage.Disk {
			attached++
			return d
		}})
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("Open = %v, want ErrFormat", err)
		}
		if attached != 0 {
			t.Errorf("Open attached %d data files before refusing", attached)
		}
		if after, err := os.ReadFile(walPath); err != nil || !bytes.Equal(after, before) {
			t.Errorf("Open changed the log before refusing: %d bytes, was %d (%v)", len(after), len(before), err)
		}
	}
	for _, c := range []struct {
		name   string
		format uint32
	}{{"no format number", 0}, {"format 1, keys in the record", 1}, {"another format", types.RecordFormat + 1}} {
		t.Run("file_0/"+c.name, func(t *testing.T) {
			dir, page := formatDir(t)
			f, err := os.OpenFile(dataFilePath(dir, catalog.File), os.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			_, err = f.WriteAt(withFormat(page, c.format), 0)
			if err := errors.Join(err, f.Close()); err != nil {
				t.Fatal(err)
			}
			refused(t, dir)
		})
		// A directory that crashed after DDL: the log's newest image of page
		// 0 is the one recovery would install.
		t.Run("log/"+c.name, func(t *testing.T) {
			dir, page := formatDir(t)
			logPage(t, dir, withFormat(page, c.format))
			refused(t, dir)
		})
	}
	t.Run("catalog.json", func(t *testing.T) {
		dir, _ := formatDir(t)
		if err := os.Remove(dataFilePath(dir, catalog.File)); err != nil {
			t.Fatal(err)
		}
		legacy := `{"format": 2, "tables": [{"name": "t", "columns": [{"name": "id", "kind": 2}], "file": 1}], "stats": {}, "next_file": 2}`
		if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte(legacy), 0o644); err != nil {
			t.Fatal(err)
		}
		refused(t, dir)
	})
	t.Run("log/catalog record", func(t *testing.T) {
		dir, _ := formatDir(t)
		payload := []byte(`{"format": 2}`)
		payload = append([]byte{2}, payload...)
		frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
		if err := os.WriteFile(filepath.Join(dir, walFileName), append(frame, payload...), 0o644); err != nil {
			t.Fatal(err)
		}
		refused(t, dir)
	})
	t.Run("this format", func(t *testing.T) {
		dir, page := formatDir(t)
		logPage(t, dir, page)
		e, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if rec := e.LastRecovery(); rec.BatchesReplayed != 1 || rec.PagesApplied != 1 {
			t.Errorf("recovery = %+v, want the logged batch replayed", rec)
		}
		res := e.MustExec(`SELECT id FROM t WHERE name LEXEQUAL 'nehru' THRESHOLD 0`)
		if len(res.Rows) != 1 {
			t.Errorf("rows after recovery = %v, want id 1", res.Rows)
		}
	})
}

// A table with a UNITEXT column keeps its first one's filter keys in each
// row's heap slot, 14 bytes beside the record, so its record — the row's wire
// form — holds up to the keyed heap's limit,
// storage.MaxRecordSize(types.SlotKeyBytes), 14 bytes less than an unkeyed
// heap's. A row of exactly the limit is stored; one byte more is refused
// with the heap's error, and the statement leaves the table as it was.
func TestInsertRecordSizeBoundary(t *testing.T) {
	e, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE t (name UNITEXT, pad TEXT)`)
	insert := func(n int) error {
		_, err := e.Exec(fmt.Sprintf(`INSERT INTO t VALUES (unitext('nehru', english), '%s')`, strings.Repeat("a", n)))
		return err
	}
	if err := insert(0); err != nil {
		t.Fatal(err)
	}
	name := e.MustExec(`SELECT name FROM t`).Rows[0][0]
	// size is the length of the record an insert of an n-byte pad stores:
	// that row's wire form.
	size := func(n int) int {
		return len(types.EncodeTuple(types.Tuple{name, types.NewText(strings.Repeat("a", n))}))
	}
	limit := storage.MaxRecordSize(types.SlotKeyBytes)
	if limit != storage.MaxRecordSize(0)-14 {
		t.Fatalf("a keyed heap's limit is %d bytes, an unkeyed one's %d: want 14 less", limit, storage.MaxRecordSize(0))
	}
	n := limit
	for size(n) > limit {
		n--
	}
	if rec := size(n); rec != limit {
		t.Fatalf("no pad makes a record of exactly %d bytes (%d bytes at %d)", limit, rec, n)
	}
	if err := insert(n); err != nil {
		t.Fatalf("a row of exactly %d bytes: %v", limit, err)
	}
	if err := insert(n + 1); err == nil || !strings.Contains(err.Error(), "exceeds max") {
		t.Fatalf("a row one byte over the limit: %v, want the heap's refusal", err)
	}
	if err := insert(1); err != nil {
		t.Fatalf("an insert after the refusal: %v", err)
	}
	if rows := e.MustExec(`SELECT name FROM t`).Rows; len(rows) != 3 {
		t.Fatalf("%d rows, want 3: the refused row must leave no trace", len(rows))
	}
}
