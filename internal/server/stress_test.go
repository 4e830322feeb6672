package server

import (
	"fmt"
	"sync"
	"testing"

	"github.com/mural-db/mural/internal/client"
	"github.com/mural-db/mural/internal/leakcheck"
	"github.com/mural-db/mural/mural"
)

// Concurrent sessions driving INSERT + SELECT + DDL over the wire against
// one durable engine. Under -race this validates the locking of the whole
// write path (group-commit WAL, sealed batches, shared caches); the final
// assertions check that every commit landed and that DDL purged the shared
// caches. Whether commits share a sync depends on how fast the device is
// (on tmpfs each one finishes before the next is staged), so grouping
// itself is pinned deterministically by
// mural.TestEngineInsertsGroupBehindInflightSync.
func TestConcurrentSessionsStress(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	eng, err := mural.Open(mural.Config{Dir: dir})
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

	setup, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec(`CREATE TABLE kv (id INT, name UNITEXT)`); err != nil {
		t.Fatal(err)
	}
	_ = setup.Close()

	const (
		sessions   = 8
		insertsPer = 25
	)
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			conn, err := client.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			for i := 0; i < insertsPer; i++ {
				id := s*insertsPer + i
				if _, err := conn.Exec(fmt.Sprintf(
					`INSERT INTO kv VALUES (%d, unitext('name%03d', english))`, id, id)); err != nil {
					errCh <- fmt.Errorf("session %d insert %d: %w", s, i, err)
					return
				}
				if i%5 == 0 {
					cur, err := conn.Query(`SELECT count(*) FROM kv WHERE name LEXEQUAL 'name000' THRESHOLD 2 IN english`)
					if err != nil {
						errCh <- fmt.Errorf("session %d select: %w", s, err)
						return
					}
					if _, err := cur.All(); err != nil {
						errCh <- fmt.Errorf("session %d fetch: %w", s, err)
						return
					}
				}
			}
			// Each session churns its own scratch table so DDL (create,
			// index, drop — all cache-invalidating) races the other
			// sessions' inserts and plans.
			scratch := fmt.Sprintf("scratch_%d", s)
			for _, q := range []string{
				fmt.Sprintf(`CREATE TABLE %s (id INT, v TEXT)`, scratch),
				fmt.Sprintf(`INSERT INTO %s VALUES (1, 'x')`, scratch),
				fmt.Sprintf(`CREATE INDEX %s_id ON %s (id) USING BTREE`, scratch, scratch),
				fmt.Sprintf(`DROP TABLE %s`, scratch),
			} {
				if _, err := conn.Exec(q); err != nil {
					errCh <- fmt.Errorf("session %d %q: %w", s, q, err)
					return
				}
			}
			errCh <- nil
		}(s)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	ws := eng.WALStats()
	if ws.Commits < sessions*insertsPer {
		t.Fatalf("WAL commits = %d, want at least %d", ws.Commits, sessions*insertsPer)
	}
	t.Logf("WAL: %d commits retired by %d syncs", ws.Commits, ws.Syncs)

	// All rows from every session are visible.
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cur, err := conn.Query(`SELECT count(*) FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	if n := rows[0][0].Int(); n != sessions*insertsPer {
		t.Errorf("kv rows = %d, want %d", n, sessions*insertsPer)
	}

	// Warm the shared caches, then confirm DDL purges them.
	if _, err := conn.Exec(`SELECT id FROM kv WHERE name LEXEQUAL 'name001' THRESHOLD 2 IN english`); err != nil {
		t.Fatal(err)
	}
	if s := eng.CacheStats(); s.Plan.Entries == 0 {
		t.Fatal("plan cache empty after a SELECT")
	}
	if _, err := conn.Exec(`CREATE INDEX kv_id ON kv (id) USING BTREE`); err != nil {
		t.Fatal(err)
	}
	if s := eng.CacheStats(); s.Plan.Entries != 0 || s.G2P.Entries != 0 {
		t.Errorf("caches survive CREATE INDEX over the wire: %+v", s)
	}
	if _, err := conn.Exec(`DROP TABLE kv`); err != nil {
		t.Fatal(err)
	}
	if s := eng.CacheStats(); s.Plan.Entries != 0 || s.G2P.Entries != 0 {
		t.Errorf("caches survive DROP TABLE over the wire: %+v", s)
	}
}
