package mural

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/types"
)

// inEachMode runs a test against an in-memory and an on-disk engine.
func inEachMode(t *testing.T, test func(t *testing.T, e *Engine)) {
	for _, mode := range []string{"memory", "disk"} {
		t.Run(mode, func(t *testing.T) {
			var cfg Config
			if mode == "disk" {
				cfg.Dir = t.TempDir()
			}
			e, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = e.Close() }()
			test(t, e)
		})
	}
}

// TestDeleteIndexFailureLeavesConsistentState pins what a DELETE whose index
// maintenance fails leaves behind: the statement's batch rolls back, so the
// heap row and the entries already removed from earlier indexes are back,
// and the same DELETE succeeds once the fault is cleared.
func TestDeleteIndexFailureLeavesConsistentState(t *testing.T) {
	inEachMode(t, testDeleteIndexFailureLeavesConsistentState)
}

func testDeleteIndexFailureLeavesConsistentState(t *testing.T, e *Engine) {
	mustExec := func(q string) {
		t.Helper()
		if _, err := e.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec(`CREATE TABLE t (id INT, name UNITEXT)`)
	var rows []string
	for i := 0; i < 20; i++ {
		rows = append(rows, fmt.Sprintf("(%d, unitext('%s', english))", i, syntheticName(i)))
	}
	mustExec(`INSERT INTO t VALUES ` + strings.Join(rows, ","))
	mustExec(`CREATE INDEX ix_bt ON t (id) USING BTREE`)
	mustExec(`CREATE INDEX ix_mt ON t (name) USING MTREE`)

	// Fail the M-Tree delete: the B-tree (earlier in index order) will have
	// removed its entry by then, so the rollback must restore it.
	injected := errors.New("injected index-delete failure")
	e.failIndexDelete = func(index string) error {
		if index == "ix_mt" {
			return injected
		}
		return nil
	}
	if _, err := e.Exec(`DELETE FROM t WHERE id = 5`); !errors.Is(err, injected) {
		t.Fatalf("DELETE with failing index maintenance: got %v, want injected error", err)
	}
	e.failIndexDelete = nil

	// Heap row must still be there (old order tombstoned it first).
	res, err := e.Exec(`SELECT count(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 20 {
		t.Fatalf("rows after failed DELETE = %d, want 20 (heap mutated before indexes)", n)
	}
	// The B-tree entry must be back after the rollback.
	key := types.KeyOf(types.NewInt(5))
	rids, _, err := e.IndexSearch("ix_bt", key, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 1 {
		t.Fatalf("btree entries for id=5 after failed DELETE = %d, want 1 (not rolled back)", len(rids))
	}
	// The restored entry must point at a live heap row.
	if _, err := e.FetchRIDs("t", rids); err != nil {
		t.Fatalf("btree entry dangles after rollback: %v", err)
	}

	// With the fault cleared the same DELETE succeeds and removes the row
	// from the heap and every index.
	res, err = e.Exec(`DELETE FROM t WHERE id = 5`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("retry affected %d rows, want 1", res.RowsAffected)
	}
	if rids, _, err = e.IndexSearch("ix_bt", key, key); err != nil || len(rids) != 0 {
		t.Fatalf("btree entries for id=5 after retry = %d (err %v), want 0", len(rids), err)
	}
	res, err = e.Exec(`SELECT count(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 19 {
		t.Fatalf("rows after retry = %d, want 19", n)
	}
}

// TestDeleteIndexFailureFirstIndex covers the boundary: the very first
// index delete fails, so the rollback undoes a batch that removed nothing
// from any index.
func TestDeleteIndexFailureFirstIndex(t *testing.T) {
	inEachMode(t, testDeleteIndexFailureFirstIndex)
}

func testDeleteIndexFailureFirstIndex(t *testing.T, e *Engine) {
	if _, err := e.Exec(`CREATE TABLE t (id INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(`INSERT INTO t VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(`CREATE INDEX ix ON t (id) USING BTREE`); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("boom")
	e.failIndexDelete = func(string) error { return injected }
	if _, err := e.Exec(`DELETE FROM t`); !errors.Is(err, injected) {
		t.Fatalf("got %v, want injected error", err)
	}
	e.failIndexDelete = nil
	res, err := e.Exec(`SELECT count(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != 3 {
		t.Fatalf("rows = %d, want 3", n)
	}
	if res, err = e.Exec(`DELETE FROM t`); err != nil || res.RowsAffected != 3 {
		t.Fatalf("retry: affected %d, err %v", res.RowsAffected, err)
	}
}
