package mural

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

// A data directory of another on-disk format — one whose catalog image has
// no format number, as every image did before the numbering, or another
// number — is refused with ErrFormat before Open recovers, loads or attaches
// anything: no data file is opened, and a log that carries the image is left
// as it was. A directory of this build's format opens, recovers and reads as
// before.
func TestOpenRefusesOtherFormat(t *testing.T) {
	// formatDir writes a closed database of this build's format, with a
	// UNITEXT row, and returns its directory and catalog image.
	formatDir := func(t *testing.T) (string, map[string]any) {
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
		data, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
		if err != nil {
			t.Fatal(err)
		}
		var img map[string]any
		if err := json.Unmarshal(data, &img); err != nil {
			t.Fatal(err)
		}
		if img["format"] != float64(types.RecordFormat) {
			t.Fatalf("catalog image format = %v, want %d", img["format"], types.RecordFormat)
		}
		return dir, img
	}
	marshal := func(t *testing.T, img map[string]any, format any) []byte {
		img["format"] = format
		if format == nil {
			delete(img, "format")
		}
		data, err := json.Marshal(img)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// refused opens dir, which must fail with ErrFormat having attached no
	// data file and left the log as it was.
	refused := func(t *testing.T, dir string) {
		t.Helper()
		walPath := filepath.Join(dir, walFileName)
		before, err := os.Stat(walPath)
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
		if after, err := os.Stat(walPath); err != nil || after.Size() != before.Size() {
			t.Errorf("Open changed the log before refusing: %d bytes, was %d (%v)", after.Size(), before.Size(), err)
		}
	}
	for _, c := range []struct {
		name   string
		format any
	}{{"no format number", nil}, {"format 1, keys in the record", 1}, {"another format", types.RecordFormat + 1}} {
		t.Run("catalog.json/"+c.name, func(t *testing.T) {
			dir, img := formatDir(t)
			if err := os.WriteFile(filepath.Join(dir, "catalog.json"), marshal(t, img, c.format), 0o644); err != nil {
				t.Fatal(err)
			}
			refused(t, dir)
		})
		// A directory that crashed after DDL: the log's last batch carries
		// the catalog image that recovery would install.
		t.Run("log/"+c.name, func(t *testing.T) {
			dir, img := formatDir(t)
			f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			p, err := storage.NewWAL(f).StageBatch(nil, marshal(t, img, c.format))
			if err == nil {
				err = p.Wait()
			}
			if err := errors.Join(err, f.Close()); err != nil {
				t.Fatal(err)
			}
			refused(t, dir)
		})
	}
	t.Run("this format", func(t *testing.T) {
		dir, img := formatDir(t)
		f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		p, err := storage.NewWAL(f).StageBatch(nil, marshal(t, img, types.RecordFormat))
		if err == nil {
			err = p.Wait()
		}
		if err := errors.Join(err, f.Close()); err != nil {
			t.Fatal(err)
		}
		e, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if rec := e.LastRecovery(); rec.BatchesReplayed != 1 || !rec.CatalogRestored {
			t.Errorf("recovery = %+v, want the logged batch replayed and its catalog restored", rec)
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
