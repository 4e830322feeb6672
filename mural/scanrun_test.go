package mural

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// noPins fails the test when a frame of e's buffer pool is still pinned.
func noPins(t *testing.T, e *Engine, after string) {
	t.Helper()
	if n := e.pool.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned after %s", n, after)
	}
}

// A heap scan holds the pins of a run of resident pages between the pages
// it hands the executor, so every way a statement stops reading a table
// must release them through the scan's Close: a LIMIT met part way, a
// cursor closed after one row, an operator error part way. Serially and
// under a Gather.
func TestStatementsReleaseScanPinsAtEveryExit(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e, err := Open(Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			loadNames(t, e, 9000)
			if np, err := e.TablePages("names"); err != nil || np < 2*16 {
				t.Fatalf("names takes %d pages (%v): too few for runs and claims of 16", np, err)
			}
			errStop := errors.New("stop")
			if err := e.RegisterOperator("failat", func(a, b Value) (bool, error) {
				if a.Int() == b.Int() {
					return false, errStop
				}
				return false, nil
			}); err != nil {
				t.Fatal(err)
			}
			if res := e.MustExec(`SELECT id FROM names`); len(res.Rows) != 9000 {
				t.Fatalf("full scan read %d rows", len(res.Rows))
			}
			noPins(t, e, "a full scan")
			if res := e.MustExec(`SELECT id FROM names LIMIT 1`); len(res.Rows) != 1 {
				t.Fatalf("LIMIT 1 read %d rows", len(res.Rows))
			}
			noPins(t, e, "LIMIT 1")
			rows, err := e.Query(`SELECT id, name FROM names`)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := rows.Next(); !ok || err != nil {
				t.Fatalf("first row: %v, %v", ok, err)
			}
			if err := rows.Close(); err != nil {
				t.Fatal(err)
			}
			noPins(t, e, "a cursor closed after one row")
			if _, err := e.Exec(`SELECT id FROM names WHERE failat(id, 4000)`); !errors.Is(err, errStop) {
				t.Fatalf("operator error part way: %v", err)
			}
			noPins(t, e, "an operator error part way")
			if err := e.Close(); err != nil {
				t.Fatalf("Close after the scans: %v", err)
			}
		})
	}
}

// DROP TABLE, and Engine.Close, may run while a cursor on another session
// holds a run of the table's pages part way through it. The drop succeeds
// and releases the file; the cursor then fails at its next run, as a page
// pinned after the drop would, and releases its pins at Close. A workload
// that cycles every frame of the pool afterwards (a new table larger than
// the pool, written and scanned) never meets a frame of the dropped file.
// On disk, serially and under a Gather.
func TestDropTableWhileACursorHoldsARun(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e, err := Open(Config{Dir: t.TempDir(), Workers: workers, BufferPages: 48})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() })
			loadNames(t, e, 9000)
			if np, err := e.TablePages("names"); err != nil || np > 48 {
				t.Fatalf("names takes %d pages (%v): more than the pool", np, err)
			}
			e.MustExec(`SELECT id FROM names`) // every page of names resident
			rows, err := e.Session().QueryContext(context.Background(), `SELECT id, name FROM names`)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := rows.Next(); !ok || err != nil {
				t.Fatalf("first row: %v, %v", ok, err)
			}
			if e.pool.PinnedFrames() == 0 {
				t.Fatal("the cursor holds no run part way through a resident table")
			}
			e.MustExec(`DROP TABLE names`)
			e.MustExec(`CREATE TABLE fresh (id INT, name UNITEXT)`)
			for i := 0; i < 120; i++ {
				var vals string
				for j := 0; j < 100; j++ {
					if j > 0 {
						vals += ", "
					}
					vals += fmt.Sprintf("(%d, unitext('tagore', english))", i*100+j)
				}
				e.MustExec(`INSERT INTO fresh VALUES ` + vals)
			}
			if np, err := e.TablePages("fresh"); err != nil || np <= 48 {
				t.Fatalf("fresh takes %d pages (%v): too few to cycle the pool", np, err)
			}
			if res := e.MustExec(`SELECT id FROM fresh`); len(res.Rows) != 12000 {
				t.Fatalf("fresh read %d rows", len(res.Rows))
			}
			var rerr error
			for n := 1; n <= 9000 && rerr == nil; n++ {
				var ok bool
				if _, ok, rerr = rows.Next(); !ok && rerr == nil {
					t.Fatalf("the dropped table's cursor ended after %d rows without an error", n)
				}
			}
			if rerr == nil {
				t.Fatal("the dropped table's cursor read every row")
			}
			_ = rows.Close()
			noPins(t, e, "the cursor's Close")
			if res := e.MustExec(`SELECT id FROM fresh`); len(res.Rows) != 12000 {
				t.Fatalf("fresh read %d rows after the cursor's Close", len(res.Rows))
			}
			rows, err = e.Session().QueryContext(context.Background(), `SELECT id FROM fresh`)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := rows.Next(); !ok || err != nil {
				t.Fatalf("first row: %v, %v", ok, err)
			}
			if err := e.Close(); err != nil {
				t.Fatalf("Close with a cursor open: %v", err)
			}
			_ = rows.Close()
			noPins(t, e, "Close and the cursor's Close")
		})
	}
}
