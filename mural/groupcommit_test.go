package mural

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mural-db/mural/internal/storage"
)

// gatedSyncLog blocks the first Sync after arm until the test closes gate,
// and counts the commit records written to the log. The WAL writes each
// frame's payload with one WriteAt, and a commit record's payload is the
// only one of 9 bytes that starts with its type byte, 3.
type gatedSyncLog struct {
	storage.LogFile
	armed       atomic.Bool
	gate        chan struct{}
	syncStarted chan struct{}
	commits     atomic.Int64
}

func (g *gatedSyncLog) arm() {
	g.gate = make(chan struct{})
	g.syncStarted = make(chan struct{})
	g.armed.Store(true)
}

func (g *gatedSyncLog) WriteAt(p []byte, off int64) (int, error) {
	n, err := g.LogFile.WriteAt(p, off)
	if err == nil && len(p) == 9 && p[0] == 3 {
		g.commits.Add(1)
	}
	return n, err
}

func (g *gatedSyncLog) Sync() error {
	if g.armed.CompareAndSwap(true, false) {
		close(g.syncStarted)
		<-g.gate
	}
	return g.LogFile.Sync()
}

// INSERTs from concurrent sessions commit behind the fsync already in
// flight: while the first INSERT's sync is blocked, seven more sessions
// each stage their batch (the engine lock is not held across the wait), and
// one more sync retires all seven. 8 commits, exactly 2 syncs.
func TestEngineInsertsGroupBehindInflightSync(t *testing.T) {
	var g *gatedSyncLog
	e, err := Open(Config{
		Dir: t.TempDir(),
		WALWrap: func(f storage.LogFile) storage.LogFile {
			g = &gatedSyncLog{LogFile: f}
			return g
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	if _, err := e.Exec(`CREATE TABLE kv (id INT, name UNITEXT)`); err != nil {
		t.Fatal(err)
	}
	before := e.WALStats()
	g.arm()

	const sessions = 8
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	insert := func(i int) {
		defer wg.Done()
		_, errs[i] = e.Session().ExecContext(context.Background(), fmt.Sprintf(
			`INSERT INTO kv VALUES (%d, unitext('name%03d', english))`, i, i))
	}
	staged := g.commits.Load()
	wg.Add(1)
	go insert(0)
	<-g.syncStarted
	// The first INSERT is inside its sync with exactly its own batch staged.
	for i := 1; i < sessions; i++ {
		wg.Add(1)
		go insert(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.commits.Load()-staged != sessions {
		if time.Now().After(deadline) {
			got := g.commits.Load() - staged
			close(g.gate)
			wg.Wait()
			t.Fatalf("%d of %d INSERTs staged while the first sync was in flight; the others waited for it", got, sessions)
		}
		time.Sleep(time.Millisecond)
	}
	close(g.gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	after := e.WALStats()
	if c := after.Commits - before.Commits; c != sessions {
		t.Errorf("commits = %d, want %d", c, sessions)
	}
	if s := after.Syncs - before.Syncs; s != 2 {
		t.Errorf("syncs = %d, want 2 (the first INSERT's and one for the seven behind it)", s)
	}
	res, err := e.Exec(`SELECT count(*) FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != sessions {
		t.Errorf("rows = %d, want %d", n, sessions)
	}
}
