package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/mural-db/mural/internal/client"
	"github.com/mural-db/mural/internal/leakcheck"
	"github.com/mural-db/mural/mural"
)

// loadBigNames fills a names table large enough that a Ψ self-join runs for
// hundreds of milliseconds — long enough to cancel mid-flight.
func loadBigNames(t testing.TB, conn *client.Conn, n int) {
	t.Helper()
	if _, err := conn.Exec(`CREATE TABLE names (id INT, name UNITEXT)`); err != nil {
		t.Fatal(err)
	}
	pool := []string{"akash", "akaash", "aakash", "vikram", "vikran", "priya"}
	var rows []string
	for i := 0; i < n; i++ {
		rows = append(rows, fmt.Sprintf("(%d, unitext('%s', english))", i, pool[i%len(pool)]))
		if len(rows) == 200 || i == n-1 {
			if _, err := conn.Exec(`INSERT INTO names VALUES ` + strings.Join(rows, ", ")); err != nil {
				t.Fatal(err)
			}
			rows = rows[:0]
		}
	}
}

const bigPsiJoin = `SELECT count(*) FROM names a, names b WHERE a.name LEXEQUAL b.name THRESHOLD 2`

// A wire-level MsgCancel aborts a running full-table Ψ join well under a
// second, surfaces the typed error to the blocked caller, and leaves no
// engine goroutine behind.
func TestWireCancelAbortsRunningQuery(t *testing.T) {
	leakcheck.Check(t)
	_, conn := startServer(t)
	loadBigNames(t, conn, 1600)

	cancelsBefore := mCancels.Value()
	errCh := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := conn.Exec(bigPsiJoin)
		errCh <- err
	}()
	// Give the statement time to reach the executor before canceling.
	time.Sleep(30 * time.Millisecond)
	if err := conn.Cancel(); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	select {
	case err := <-errCh:
		elapsed := time.Since(start)
		if !errors.Is(err, client.ErrCanceled) {
			t.Fatalf("canceled statement = %v, want client.ErrCanceled", err)
		}
		if elapsed > time.Second {
			t.Errorf("cancel observed after %s, want well under 1s", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("statement never returned after cancel")
	}
	if got := mCancels.Value(); got != cancelsBefore+1 {
		t.Errorf("mural_server_cancels_total advanced by %d, want 1", got-cancelsBefore)
	}
	// The connection is still usable for the next statement.
	cur, err := conn.Query(`SELECT count(*) FROM names`)
	if err != nil {
		t.Fatalf("statement after cancel: %v", err)
	}
	rows, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 1600 {
		t.Errorf("count after cancel = %v", rows[0])
	}
}

// Canceling an idle connection is a harmless no-op.
func TestCancelIdleConnection(t *testing.T) {
	_, conn := startServer(t)
	if err := conn.Cancel(); err != nil {
		t.Fatalf("Cancel on idle conn: %v", err)
	}
	if err := conn.Ping(); err != nil {
		t.Fatalf("Ping after idle cancel: %v", err)
	}
}

// Shutdown lets a session with an open cursor finish its work, refuses new
// statements on active sessions with the typed shutdown error, and returns
// nil once everything drains.
func TestShutdownDrainsGracefully(t *testing.T) {
	leakcheck.Check(t)
	eng, err := mural.Open(mural.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Exec(`CREATE TABLE t (id INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(`INSERT INTO t VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}

	// An open cursor keeps the session active through the drain.
	cur, err := conn.Query(`SELECT id FROM t ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	for i := 0; i < 1000 && !srv.isDraining(); i++ {
		time.Sleep(time.Millisecond)
	}
	if !srv.isDraining() {
		t.Fatal("server never entered draining state")
	}

	// New statements on the still-active session are refused, typed.
	if _, err := conn.Exec(`INSERT INTO t VALUES (4)`); !errors.Is(err, client.ErrShutdown) {
		t.Fatalf("statement during drain = %v, want client.ErrShutdown", err)
	}
	// New connections are refused outright.
	if c2, err := client.Dial(addr); err == nil {
		if err := c2.Ping(); err == nil {
			t.Error("new connection served during drain")
		}
		_ = c2.Close()
	}

	// The in-flight cursor still fetches to completion.
	rows, err := cur.All()
	if err != nil {
		t.Fatalf("fetch during drain: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows during drain = %d, want 3", len(rows))
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor close during drain: %v", err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown = %v, want nil after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never returned after last cursor closed")
	}
}

// A drain that cannot finish before its context expires cancels the
// stragglers and reports the context error.
func TestShutdownForcedOnContextExpiry(t *testing.T) {
	eng, err := mural.Open(mural.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Exec(`CREATE TABLE t (id INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	// A cursor the test never closes: the drain cannot complete.
	if _, err := conn.Query(`SELECT id FROM t`); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Shutdown = %v, want context.DeadlineExceeded", err)
	}
}
