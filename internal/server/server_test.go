package server

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/mural-db/mural/internal/client"
	"github.com/mural-db/mural/internal/metrics"
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/mural"
)

// startServer spins up an in-memory engine behind a TCP server and returns
// a connected client.
func startServer(t testing.TB) (*mural.Engine, *client.Conn) {
	t.Helper()
	eng, err := mural.Open(mural.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		conn.Close()
		srv.Close()
		eng.Close()
	})
	return eng, conn
}

func TestPing(t *testing.T) {
	_, conn := startServer(t)
	if err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestExecAndQueryOverWire(t *testing.T) {
	_, conn := startServer(t)
	if _, err := conn.Exec(`CREATE TABLE t (id INT, name UNITEXT)`); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Exec(`INSERT INTO t VALUES (1, unitext('Nehru', english)), (2, unitext('Gandhi', english))`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("rows affected = %d", n)
	}
	cur, err := conn.Query(`SELECT id, text(name) FROM t ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Int() != 1 || rows[1][1].Text() != "Gandhi" {
		t.Errorf("rows = %v", rows)
	}
	if len(cur.Cols) != 2 || cur.Cols[0] != "id" {
		t.Errorf("cols = %v", cur.Cols)
	}
}

func TestRowAtATimeFetchCountsRoundTrips(t *testing.T) {
	_, conn := startServer(t)
	conn.Exec(`CREATE TABLE t (id INT)`)
	var vals []string
	for i := 0; i < 50; i++ {
		vals = append(vals, fmt.Sprintf("(%d)", i))
	}
	conn.Exec(`INSERT INTO t VALUES ` + strings.Join(vals, ","))

	conn.FetchSize = 1
	cur, err := conn.Query(`SELECT id FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("rows = %d", len(rows))
	}
	if cur.RoundTrips < 50 {
		t.Errorf("row-at-a-time fetch made only %d round trips", cur.RoundTrips)
	}

	conn.FetchSize = 100
	cur2, err := conn.Query(`SELECT id FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur2.All(); err != nil {
		t.Fatal(err)
	}
	if cur2.RoundTrips > 2 {
		t.Errorf("batched fetch made %d round trips", cur2.RoundTrips)
	}
}

func TestServerErrorPropagates(t *testing.T) {
	_, conn := startServer(t)
	if _, err := conn.Exec(`SELECT FROM garbage syntax`); err == nil {
		t.Error("syntax error must propagate")
	}
	if _, err := conn.Query(`SELECT * FROM ghost`); err == nil {
		t.Error("missing table must propagate")
	}
	// The connection stays usable after an error.
	if err := conn.Ping(); err != nil {
		t.Errorf("connection broken after error: %v", err)
	}
}

// A syntax error sent as MsgQuery is the engine's to report: the client sees
// the parser's text under the generic code, and the engine counts the failed
// statement (the server used to parse first and answer it alone).
func TestQuerySyntaxErrorReachesEngine(t *testing.T) {
	_, conn := startServer(t)
	const q = `SELEC nonsense`
	_, perr := sql.Parse(q)
	if perr == nil {
		t.Fatal("test statement parses")
	}
	failed := metrics.Default.Counter("mural_engine_query_errors_total")
	before := failed.Value()
	_, err := conn.Query(q)
	if want := "client: server error: " + perr.Error(); err == nil || err.Error() != want {
		t.Errorf("Query(%q) = %v, want %q", q, err, want)
	}
	if got := failed.Value() - before; got != 1 {
		t.Errorf("mural_engine_query_errors_total moved by %d, want 1", got)
	}
}

func TestQueryNonSelectReturnsOK(t *testing.T) {
	_, conn := startServer(t)
	if _, err := conn.Query(`CREATE TABLE t (id INT)`); err == nil {
		t.Error("Query on DDL should error client-side (MsgOK, no cursor)")
	}
}

func TestCursorClose(t *testing.T) {
	_, conn := startServer(t)
	conn.Exec(`CREATE TABLE t (id INT)`)
	conn.Exec(`INSERT INTO t VALUES (1), (2), (3)`)
	cur, err := conn.Query(`SELECT id FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cur.Next(); err != nil || !ok {
		t.Fatal("first row")
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	// Connection still works.
	cur2, err := conn.Query(`SELECT count(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := cur2.All()
	if rows[0][0].Int() != 3 {
		t.Error("count after close")
	}
}

func TestMultipleClients(t *testing.T) {
	eng, conn := startServer(t)
	conn.Exec(`CREATE TABLE t (id INT)`)
	conn.Exec(`INSERT INTO t VALUES (1)`)
	_ = eng
	// A second client sees the same data.
	srvAddr := connAddr(t, conn)
	conn2, err := client.Dial(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	cur, err := conn2.Query(`SELECT count(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := cur.All()
	if rows[0][0].Int() != 1 {
		t.Error("second client sees different data")
	}
}

// connAddr digs the remote address out of a live client connection by
// round-tripping through the engine-side test setup; for simplicity we
// re-derive it from the Ping below.
func connAddr(t *testing.T, c *client.Conn) string {
	t.Helper()
	return c.RemoteAddr()
}

func TestPsiScanUDFAgreesWithCore(t *testing.T) {
	eng, conn := startServer(t)
	conn.Exec(`CREATE TABLE names (id INT, name UNITEXT)`)
	base := []string{"nehru", "neru", "gandhi", "gandi", "tagore", "bose", "patel", "mehta"}
	var vals []string
	for i, b := range base {
		vals = append(vals, fmt.Sprintf("(%d, unitext('%s', english))", i, b))
	}
	conn.Exec(`INSERT INTO names VALUES ` + strings.Join(vals, ","))

	reg := phonetic.DefaultRegistry()
	query := types.Compose("nehru", types.LangEnglish)
	rows, st, err := client.PsiScan(conn, "names", "name", query, 2, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	core := eng.MustExec(`SELECT count(*) FROM names WHERE name LEXEQUAL 'nehru' THRESHOLD 2`)
	if int64(len(rows)) != core.Rows[0][0].Int() {
		t.Errorf("UDF found %d, core found %v", len(rows), core.Rows[0][0])
	}
	if st.RowsShipped != len(base) {
		t.Errorf("no-index scan must ship the whole table: %d", st.RowsShipped)
	}
}

func TestPsiScanMDIAgreesWithNoIndex(t *testing.T) {
	eng, conn := startServer(t)
	_ = eng
	conn.Exec(`CREATE TABLE names (id INT, name UNITEXT, pdist INT)`)
	reg := phonetic.DefaultRegistry()
	pivot := "aeioun"
	base := []string{"nehru", "neru", "gandhi", "gandi", "tagore", "bose", "patel", "mehta", "kumar", "kumaran"}
	var vals []string
	for i, b := range base {
		ph := reg.ToPhoneme(types.Compose(b, types.LangEnglish))
		vals = append(vals, fmt.Sprintf("(%d, unitext('%s', english), %d)", i, b, phonetic.EditDistance(ph, pivot)))
	}
	conn.Exec(`INSERT INTO names VALUES ` + strings.Join(vals, ","))
	conn.Exec(`CREATE INDEX idx_pdist ON names (pdist) USING BTREE`)
	conn.Exec(`ANALYZE names`)

	query := types.Compose("nehru", types.LangEnglish)
	noIdx, _, err := client.PsiScan(conn, "names", "name", query, 2, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	mdiRows, st, err := client.PsiScanMDI(conn, "names", "name", "pdist", pivot, query, 2, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mdiRows) != len(noIdx) {
		t.Errorf("MDI found %d, no-index found %d", len(mdiRows), len(noIdx))
	}
	if st.RowsShipped > len(base) {
		t.Errorf("MDI shipped %d rows of %d", st.RowsShipped, len(base))
	}
}

func TestPsiJoinUDF(t *testing.T) {
	eng, conn := startServer(t)
	conn.Exec(`CREATE TABLE a (id INT, name UNITEXT)`)
	conn.Exec(`CREATE TABLE b (id INT, name UNITEXT)`)
	conn.Exec(`INSERT INTO a VALUES (1, unitext('nehru', english)), (2, unitext('gandhi', english))`)
	conn.Exec(`INSERT INTO b VALUES (1, unitext('neru', english)), (2, unitext('bose', english))`)
	reg := phonetic.DefaultRegistry()
	matches, _, err := client.PsiJoin(conn, "a", "name", "b", "name", 2, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	core := eng.MustExec(`SELECT count(*) FROM a, b WHERE a.name LEXEQUAL b.name THRESHOLD 2`)
	if int64(matches) != core.Rows[0][0].Int() {
		t.Errorf("UDF join = %d, core = %v", matches, core.Rows[0][0])
	}
}

func TestClosureUDFAndCoreAgree(t *testing.T) {
	eng, conn := startServer(t)
	conn.Exec(`CREATE TABLE tax (id INT, parent INT)`)
	// A small tree: 0 -> {1, 2}, 1 -> {3, 4}, 2 -> {5}, 4 -> {6, 7}.
	conn.Exec(`INSERT INTO tax VALUES (0, NULL), (1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 4), (7, 4)`)
	conn.Exec(`CREATE INDEX idx_parent ON tax (parent) USING BTREE`)
	conn.Exec(`ANALYZE tax`)

	closure, st, err := client.Closure(conn, "tax", "id", "parent", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(closure) != 5 { // {1,3,4,6,7}
		t.Errorf("outside closure = %v", closure)
	}
	if st.Queries != 5 {
		t.Errorf("recursive SQL must issue one query per member: %d", st.Queries)
	}

	scan, err := eng.ComputeClosureScan("tax", "id", "parent", 1)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Size != 5 {
		t.Errorf("core scan closure = %d", scan.Size)
	}
	if scan.HeapScans < 3 {
		t.Errorf("per-level scans = %d", scan.HeapScans)
	}
	idx, err := eng.ComputeClosureIndex("tax", "id", "parent", "idx_parent", 1)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Size != 5 || idx.IndexProbes != 5 {
		t.Errorf("core index closure = %+v", idx)
	}
	// The pinned-memory oracle agrees too (root has the whole tree).
	full, _, err := client.Closure(conn, "tax", "id", "parent", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 8 {
		t.Errorf("full closure = %d", len(full))
	}
}

func TestSemScanUDF(t *testing.T) {
	_, conn := startServer(t)
	conn.Exec(`CREATE TABLE tax (id INT, parent INT)`)
	conn.Exec(`INSERT INTO tax VALUES (0, NULL), (1, 0), (2, 0), (3, 1)`)
	conn.Exec(`CREATE TABLE items (iid INT, syn INT)`)
	conn.Exec(`INSERT INTO items VALUES (100, 3), (101, 2), (102, 1), (103, NULL)`)
	matches, st, err := client.SemScan(conn, "items", "syn", "tax", "id", "parent", "", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if matches != 2 { // syn 3 and 1 are in TC(1)
		t.Errorf("SemScan matches = %d", matches)
	}
	if st.RowsShipped < 4 {
		t.Errorf("items must be shipped: %d", st.RowsShipped)
	}
}

// TestPanicKillsConnectionNotServer registers an operator that panics and
// drives it through a query: the connection must get an error and die, the
// server process and other connections must survive.
func TestPanicKillsConnectionNotServer(t *testing.T) {
	panicsBefore := mPanics.Value()
	eng, conn := startServer(t)
	if err := eng.RegisterOperator("boom", func(a, b types.Value) (bool, error) {
		panic("operator exploded")
	}); err != nil {
		t.Fatal(err)
	}
	conn.Exec(`CREATE TABLE p (id INT)`)
	conn.Exec(`INSERT INTO p VALUES (1), (2)`)
	_, err := conn.Exec(`SELECT id FROM p WHERE boom(id, id)`)
	if err == nil {
		t.Fatal("panicking operator must surface an error to the client")
	}
	if !strings.Contains(err.Error(), "internal error") {
		t.Errorf("error does not identify the internal failure: %v", err)
	}
	// This connection is gone by design...
	if err := conn.Ping(); err == nil {
		t.Error("connection survived a panic; it must be torn down")
	}
	// ...but the server still accepts new ones with intact data.
	conn2, err := client.Dial(conn.RemoteAddr())
	if err != nil {
		t.Fatalf("server died with the connection: %v", err)
	}
	defer conn2.Close()
	cur, err := conn2.Query(`SELECT count(*) FROM p`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.All()
	if err != nil || rows[0][0].Int() != 2 {
		t.Errorf("data lost after panic: %v %v", rows, err)
	}
	if got := mPanics.Value() - panicsBefore; got < 1 {
		t.Errorf("panics_recovered counter moved by %d, want >= 1", got)
	}
}

// TestIdleTimeout checks that a connection idling past the deadline is
// closed, while one that keeps talking stays up.
func TestIdleTimeout(t *testing.T) {
	idleBefore := mIdleTimeouts.Value()
	eng, err := mural.Open(mural.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	srv.IdleTimeout = 150 * time.Millisecond
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); eng.Close() })

	busy, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	idle, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if err := idle.Ping(); err != nil {
		t.Fatal(err)
	}
	// The busy connection pings well inside the deadline and must survive
	// past it; the idle one must be dropped.
	deadline := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := busy.Ping(); err != nil {
			t.Fatalf("active connection killed by idle timeout: %v", err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	if err := idle.Ping(); err == nil {
		t.Error("idle connection survived the timeout")
	}
	if got := mIdleTimeouts.Value() - idleBefore; got < 1 {
		t.Errorf("idle_timeouts counter moved by %d, want >= 1", got)
	}
}

// TestDialRetryConnectsToLateServer starts the listener only after the
// client has begun retrying.
func TestDialRetryConnectsToLateServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port; nothing listens yet

	eng, err := mural.Open(mural.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	go func() {
		time.Sleep(120 * time.Millisecond)
		if _, err := srv.Start(addr); err != nil {
			t.Errorf("late server start: %v", err)
		}
	}()
	t.Cleanup(func() { srv.Close(); eng.Close() })

	conn, err := client.DialRetry(addr, client.RetryPolicy{
		Attempts: 12, BaseDelay: 25 * time.Millisecond, MaxDelay: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("retry never reached the late server: %v", err)
	}
	defer conn.Close()
	if err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestDialRetrySurfacesLastError exhausts the budget against a dead port.
func TestDialRetrySurfacesLastError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	_, err = client.DialRetry(addr, client.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond})
	if err == nil {
		t.Fatal("dial to dead port succeeded")
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("error does not surface the attempt budget: %v", err)
	}
}
