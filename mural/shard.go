package mural

// Sharded execution, coordinator side. `SET shards = 'host:p1,host:p2'`
// declares every user table hash-partitioned across N peer engine processes
// by its first column; the session that ran the SET becomes a coordinator,
// and the engine's other sessions stay single-node. Reads are placed by the
// planner's exchange-placement pass (plan.Place) into Gather-over-Remote
// trees whose fragments this file ships over the wire protocol
// (MsgFragment); writes are routed here — INSERT rows hash to
// exactly one shard, DDL and DELETE broadcast to all of them. The
// coordinator executes DDL locally too, so its catalog can plan against the
// shared schema; its own heaps stay empty.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/mural-db/mural/internal/client"
	"github.com/mural-db/mural/internal/exec"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wire"
)

// ErrShardUnavailable reports a shard that could not be reached within the
// dial retry budget, or whose stream died mid-query. Check with errors.Is;
// the message names the shard and wraps the transport failure.
var ErrShardUnavailable = errors.New("mural: shard unavailable")

// shardFetchSize is the cursor batch size for fragment result streaming. A
// fragment ships whole result batches — the exchange cost model prices rows,
// not round trips, so fetch big.
const shardFetchSize = 512

// shardDialer builds the dialer for shard connections: the configured retry
// budget (DefaultRetry when unset), per-operation deadline, and the
// fault-injection wrap.
func (e *Engine) shardDialer() client.Dialer {
	retry := e.cfg.ShardRetry
	if retry.Attempts == 0 {
		retry = client.DefaultRetry
	}
	return client.Dialer{Retry: retry, OpTimeout: e.cfg.ShardOpTimeout, Wrap: e.cfg.ShardWrap}
}

// shardErr classifies a failure talking to one shard. Governance errors the
// shard reported keep their typed identity (a canceled fragment IS the
// statement's cancellation); everything else — dial failures, resets,
// stalls, protocol violations — becomes ErrShardUnavailable so callers can
// distinguish "the cluster is degraded" from "my query was bad".
func shardErr(shardID int, addr string, err error) error {
	switch {
	case errors.Is(err, client.ErrCanceled):
		return fmt.Errorf("%w (shard %d at %s)", ErrCanceled, shardID, addr)
	case errors.Is(err, client.ErrQueryTimeout):
		return fmt.Errorf("%w (shard %d at %s)", ErrQueryTimeout, shardID, addr)
	case errors.Is(err, client.ErrMemoryLimit):
		return fmt.Errorf("%w (shard %d at %s)", ErrMemoryLimit, shardID, addr)
	default:
		return fmt.Errorf("%w: shard %d at %s: %v", ErrShardUnavailable, shardID, addr, err)
	}
}

// RunFragment implements exec.FragmentRunner: serialize frag, ship it to the
// shard, and stream the result rows back. Called lazily from a Gather
// worker's first Next, so the N shards of one query dial and execute
// concurrently. The coordinator's remaining deadline travels with the
// fragment; its cancellation is forwarded as MsgCancel by a watcher
// goroutine that lives until the iterator closes.
func (e *Engine) RunFragment(ctx context.Context, shardID int, addr string, frag *plan.Node) (exec.TupleIter, error) {
	data, err := plan.EncodeFragment(frag)
	if err != nil {
		return nil, err
	}
	var deadlineMillis uint64
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return nil, ErrQueryTimeout
		}
		if deadlineMillis = uint64(rem / time.Millisecond); deadlineMillis == 0 {
			deadlineMillis = 1
		}
	}
	conn, err := e.shardDialer().Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("%w: shard %d at %s: %v", ErrShardUnavailable, shardID, addr, err)
	}
	conn.FetchSize = shardFetchSize
	cur, err := conn.QueryFragment(wire.EncodeFragmentPayload(deadlineMillis, data))
	if err != nil {
		_ = conn.Close()
		return nil, shardErr(shardID, addr, err)
	}
	it := &shardIter{conn: conn, cur: cur, shardID: shardID, addr: addr, stop: make(chan struct{})}
	if done := ctx.Done(); done != nil {
		go func() {
			select {
			case <-done:
				// Forward the coordinator's cancel; the in-flight fetch then
				// fails with the shard's typed ErrCanceled.
				_ = conn.Cancel()
			case <-it.stop:
			}
		}()
	}
	return it, nil
}

// shardIter adapts one shard's wire cursor to exec.TupleIter.
type shardIter struct {
	conn    *client.Conn
	cur     *client.Cursor
	shardID int
	addr    string
	stop    chan struct{}
	once    sync.Once
}

func (s *shardIter) Next() (types.Tuple, bool, error) {
	t, ok, err := s.cur.Next()
	if err != nil {
		return nil, false, shardErr(s.shardID, s.addr, err)
	}
	return t, ok, nil
}

func (s *shardIter) Close() error {
	s.once.Do(func() { close(s.stop) })
	_ = s.cur.Close() // best effort: the stream may already be dead
	return s.conn.Close()
}

// shardConns is the coordinator's lazily-dialed DML connection cache: one
// connection per shard, serialized by the mutex (the wire session is a
// single request/response stream, so concurrent writers must take turns —
// which also gives broadcast DDL a deterministic shard order).
type shardConns struct {
	mu    sync.Mutex
	conns map[string]*client.Conn
}

// do runs fn against the shard's cached connection, dialing on first use. A
// failed fn drops the cached connection: the wire session may be desynced,
// and redialing is how a restarted shard is picked back up.
func (e *Engine) shardDo(shardID int, addr string, fn func(*client.Conn) error) error {
	e.shards.mu.Lock()
	defer e.shards.mu.Unlock()
	if e.shards.conns == nil {
		e.shards.conns = make(map[string]*client.Conn)
	}
	conn, ok := e.shards.conns[addr]
	if !ok {
		var err error
		conn, err = e.shardDialer().Dial(addr) //lint:lock-held-io serializing DML (and its backoff dial) per shard under the cache lock is the design; see shardConns
		if err != nil {
			return fmt.Errorf("%w: shard %d at %s: %v", ErrShardUnavailable, shardID, addr, err)
		}
		e.shards.conns[addr] = conn
	}
	if err := fn(conn); err != nil {
		_ = conn.Close()
		delete(e.shards.conns, addr)
		return shardErr(shardID, addr, err)
	}
	return nil
}

// closeShardConns tears down the DML connection cache (engine Close).
func (e *Engine) closeShardConns() {
	e.shards.mu.Lock()
	defer e.shards.mu.Unlock()
	for _, c := range e.shards.conns {
		_ = c.Close()
	}
	e.shards.conns = nil
}

// shardExec intercepts statements that must involve the shards. It reports
// handled=false for statements that stay purely local (SELECT is rewritten
// by the planner instead; SET/SHOW/EXPLAIN are the coordinator session's).
func (e *Engine) shardExec(st *statement, stmt sql.Statement, shards []string) (bool, *Result, error) {
	var total *int64
	switch s := stmt.(type) {
	case *sql.Insert:
		result, err := e.shardInsert(st, s, shards)
		return true, result, err
	case *sql.CreateTable, *sql.DropTable, *sql.CreateIndex, *sql.DropIndex, *sql.Analyze:
		// Schema changes apply everywhere: locally first (the coordinator
		// plans against its own catalog), then on every shard. A local
		// failure (duplicate table, bad column) stops before any shard sees
		// the statement.
	case *sql.Delete:
		// Every shard deletes its own partition; the local delete is a
		// no-op over empty heaps but keeps the code path uniform.
		total = new(int64)
	default:
		return false, nil, nil
	}
	result, err := e.dispatch(st, stmt, nil)
	if err != nil {
		return true, nil, err
	}
	if err := e.shardBroadcast(st.text, shards, total); err != nil {
		return true, nil, err
	}
	if total != nil {
		result.RowsAffected += *total
	}
	return true, result, nil
}

// shardBroadcast runs one statement on every shard in order, summing rows
// affected when the caller wants them. The first failing shard aborts the
// broadcast with a typed error; shards already past it keep the change
// (schema convergence is the operator's responsibility after a partial DDL —
// re-running the statement is safe for DELETE and diagnosable for DDL).
func (e *Engine) shardBroadcast(q string, shards []string, total *int64) error {
	for i, addr := range shards {
		err := e.shardDo(i, addr, func(c *client.Conn) error {
			n, err := c.Exec(q)
			if err == nil && total != nil {
				*total += n
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// shardFor hash-routes a tuple by its first column: FNV-1a over the
// order-preserving key encoding, mod N. All routing decisions — INSERT here,
// and any future co-located join logic — must share this function.
func shardFor(tup types.Tuple, n int) int {
	h := fnv.New32a()
	_, _ = h.Write(types.KeyOf(tup[0]))
	return int(h.Sum32() % uint32(n))
}

// shardInsert evaluates the INSERT's rows locally (value errors surface
// before any shard is touched), routes each tuple to its shard, and forwards
// one rendered multi-row INSERT per shard. Values travel as literals; a
// UNITEXT value is re-rendered as its unitext(text, lang) constructor so the
// shard re-materializes the phoneme with its own (identical) converter —
// bit-identical to a direct insert there.
func (e *Engine) shardInsert(st *statement, s *sql.Insert, shards []string) (*Result, error) {
	e.mu.RLock()
	tuples, err := e.evalInsertRows(st, s)
	e.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	perShard := make([][]types.Tuple, len(shards))
	for _, tup := range tuples {
		if len(tup) == 0 {
			return nil, fmt.Errorf("mural: cannot route zero-column row")
		}
		id := shardFor(tup, len(shards))
		perShard[id] = append(perShard[id], tup)
	}
	var inserted int64
	for i, batch := range perShard {
		if len(batch) == 0 {
			continue
		}
		q, err := renderInsert(s.Table, batch)
		if err != nil {
			return nil, err
		}
		err = e.shardDo(i, shards[i], func(c *client.Conn) error {
			n, err := c.Exec(q)
			inserted += n
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: inserted}, nil
}

// renderInsert renders evaluated tuples back to one multi-row INSERT.
func renderInsert(table string, tuples []types.Tuple) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
	for ti, tup := range tuples {
		if ti > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for vi, v := range tup {
			if vi > 0 {
				b.WriteString(", ")
			}
			lit, err := renderValue(v)
			if err != nil {
				return "", err
			}
			b.WriteString(lit)
		}
		b.WriteByte(')')
	}
	return b.String(), nil
}

// renderValue renders one evaluated value as a SQL literal that parses back
// to the identical value.
func renderValue(v types.Value) (string, error) {
	switch v.Kind() {
	case types.KindNull:
		return "NULL", nil
	case types.KindBool:
		if v.Bool() {
			return "TRUE", nil
		}
		return "FALSE", nil
	case types.KindInt:
		return strconv.FormatInt(v.Int(), 10), nil
	case types.KindFloat:
		f := v.Float()
		if f != f || f > 1.7e308 || f < -1.7e308 {
			return "", fmt.Errorf("mural: cannot route non-finite float %v", f)
		}
		// Shortest exact decimal; the lexer accepts signs and exponents.
		return strconv.FormatFloat(f, 'g', -1, 64), nil
	case types.KindText:
		return quoteSQL(v.Text()), nil
	case types.KindUniText:
		u := v.UniText()
		return fmt.Sprintf("unitext(%s, %s)", quoteSQL(u.Text), quoteSQL(u.Lang.String())), nil
	default:
		return "", fmt.Errorf("mural: cannot route %s value", v.Kind())
	}
}

// quoteSQL single-quotes a string, doubling embedded quotes.
func quoteSQL(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}
