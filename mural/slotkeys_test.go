package mural

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// slotKeysOf checks every live slot of table's heap against its record: the
// slot keys must be those the engine writes for the decoded row (its keyed
// column's, types.AppendSlotKeys, labelled under net, the taxonomy the rows
// were written with). It returns the live rows' ids.
func slotKeysOf(t *testing.T, e *Engine, net *wordnet.Net, table string, keyed int) []int64 {
	t.Helper()
	np, err := e.TablePages(table)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := e.ScanRecords(table, 0, np)
	if err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	var ids []int64
	for more := true; more; {
		if more, err = scan.NextPage(func(pg storage.Page) error {
			for i := range pg.Len() {
				keys, live := pg.Keys(i)
				if !live {
					continue
				}
				rec, _ := pg.Record(i)
				row, _, err := types.DecodeTuple(rec)
				if err != nil {
					return err
				}
				if want := types.AppendSlotKeys(nil, row, keyed, net.LabelOf(row, keyed)); !bytes.Equal(keys, want) {
					return fmt.Errorf("row %v: slot keys %x, want %x", row, keys, want)
				}
				ids = append(ids, row[0].Int())
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// A row's slot keys are page bytes like its record: they survive WAL redo
// after a crash and a clean Close and reopen, on a table with two UNITEXT
// columns (the first keyed), NULLs and deleted rows.
func TestSlotKeysSurviveRedoAndReopen(t *testing.T) {
	dir := t.TempDir()
	h := newCrashHarness(-1) // the fuse never trips; the harness tracks the devices
	cfg := h.config(dir)
	cfg.CheckpointBytes = 64 << 20 // keep everything in the WAL
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.MustExec(`CREATE TABLE t (id INT, name UNITEXT, alias UNITEXT)`)
	for i := range 60 {
		name := fmt.Sprintf("unitext('%s', english)", crashNames[i%len(crashNames)])
		if i%9 == 4 {
			name = "NULL"
		}
		e.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %s, unitext('%s', hindi))", i, name, crashNames[(i+1)%len(crashNames)]))
	}
	e.MustExec(`DELETE FROM t WHERE id < 10`)
	want := slotKeysOf(t, e, nil, "t", 1)
	if len(want) != 50 {
		t.Fatalf("%d rows before the crash, want 50", len(want))
	}
	h.abandon() // crash: no Close, no checkpoint

	e, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec := e.LastRecovery(); rec.PagesApplied == 0 {
		t.Fatalf("no page redone: %+v", rec)
	}
	if got := slotKeysOf(t, e, nil, "t", 1); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after redo: rows %v, want %v", got, want)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := slotKeysOf(t, e, nil, "t", 1); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after reopen: rows %v, want %v", got, want)
	}
	if n := e.MustExec(`SELECT id FROM t WHERE name LEXEQUAL alias THRESHOLD 9`).Rows; len(n) == 0 {
		t.Error("no row matched a Ψ between the keyed and the unkeyed column")
	}
}
