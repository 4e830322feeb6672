package bench

import (
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/mural-db/mural/internal/client"
	"github.com/mural-db/mural/internal/server"
	"github.com/mural-db/mural/mural"
)

// ConcurrentPoint is one (connection count) measurement of the
// concurrent-session throughput experiment: N wire-protocol sessions
// inserting into one durable engine, where group commit lets their WAL
// syncs overlap.
type ConcurrentPoint struct {
	Connections int
	// Rows is the total number of rows inserted across all sessions.
	Rows    int
	Seconds float64
	RowsSec float64
	// WALCommits and WALSyncs are the log counters the run drove; Syncs
	// well below Commits is group commit working.
	WALCommits uint64
	WALSyncs   uint64
}

// ConcurrentConfig parameterizes the experiment.
type ConcurrentConfig struct {
	// RowsPerConn is how many single-row INSERTs each session issues
	// (default 200).
	RowsPerConn int
	// Connections lists the session counts to sweep (default 1, 4, 16).
	Connections []int
}

// RunConcurrentSessions measures durable-insert throughput as wire-protocol
// sessions are added. Every insert is one WAL commit that must survive a
// crash, so without group commit throughput is fsync-bound and flat; with
// it, concurrent sessions share fsyncs and throughput scales until the
// device saturates. Each point uses a fresh on-disk database so the WAL
// counters isolate that point's traffic.
func RunConcurrentSessions(cfg ConcurrentConfig) ([]ConcurrentPoint, error) {
	if cfg.RowsPerConn <= 0 {
		cfg.RowsPerConn = 200
	}
	if len(cfg.Connections) == 0 {
		cfg.Connections = []int{1, 4, 16}
	}
	var points []ConcurrentPoint
	for _, nconn := range cfg.Connections {
		p, err := runConcurrentPoint(nconn, cfg.RowsPerConn)
		if err != nil {
			return nil, fmt.Errorf("%d connections: %w", nconn, err)
		}
		points = append(points, p)
	}
	return points, nil
}

func runConcurrentPoint(nconn, rowsPer int) (ConcurrentPoint, error) {
	var p ConcurrentPoint
	dir, err := os.MkdirTemp("", "mural-concurrent-*")
	if err != nil {
		return p, err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	eng, err := mural.Open(mural.Config{Dir: dir})
	if err != nil {
		return p, err
	}
	defer func() { _ = eng.Close() }()
	srv := server.New(eng)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return p, err
	}
	defer func() { _ = srv.Close() }()

	if _, err := eng.Exec(`CREATE TABLE bench_kv (id INT, name UNITEXT)`); err != nil {
		return p, err
	}

	conns := make([]*client.Conn, nconn)
	for i := range conns {
		c, err := client.Dial(addr)
		if err != nil {
			return p, err
		}
		defer func() { _ = c.Close() }()
		conns[i] = c
	}

	before := eng.WALStats()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, nconn)
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *client.Conn) {
			defer wg.Done()
			for r := 0; r < rowsPer; r++ {
				id := i*rowsPer + r
				if _, err := c.Exec(fmt.Sprintf(
					`INSERT INTO bench_kv VALUES (%d, unitext('name%05d', english))`, id, id)); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return p, err
		}
	}
	after := eng.WALStats()

	total := nconn * rowsPer
	p = ConcurrentPoint{
		Connections: nconn,
		Rows:        total,
		Seconds:     elapsed.Seconds(),
		WALCommits:  after.Commits - before.Commits,
		WALSyncs:    after.Syncs - before.Syncs,
	}
	if p.Seconds > 0 {
		p.RowsSec = float64(total) / p.Seconds
	}
	return p, nil
}
