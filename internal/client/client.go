// Package client is the driver side of the outside-the-server path: a
// blocking connection to a mural server with row-at-a-time (or batched)
// cursors, plus the client-side "UDF" library (udf.go) that re-implements
// the Ψ and Ω operators the way the paper's PL/SQL baseline does.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wire"
)

// Typed server failures, mapped from the wire error codes (check with
// errors.Is). Anything the server did not classify surfaces as a plain
// formatted error carrying the server's message text.
var (
	// ErrCanceled reports a statement aborted by Cancel (or a server-side
	// context cancellation).
	ErrCanceled = errors.New("client: query canceled")
	// ErrQueryTimeout reports a statement that exceeded its deadline.
	ErrQueryTimeout = errors.New("client: query timeout")
	// ErrMemoryLimit reports a statement over its server-side memory budget.
	ErrMemoryLimit = errors.New("client: query memory limit exceeded")
	// ErrRejected reports a statement refused by admission control.
	ErrRejected = errors.New("client: admission rejected")
	// ErrShutdown reports a server that is draining or shut down.
	ErrShutdown = errors.New("client: server shutting down")
)

// serverErr maps a MsgErr payload to a typed client error.
func serverErr(payload []byte) error {
	code, msg := wire.DecodeErr(payload)
	switch code {
	case wire.ErrCodeCanceled:
		return fmt.Errorf("%w: %s", ErrCanceled, msg)
	case wire.ErrCodeTimeout:
		return fmt.Errorf("%w: %s", ErrQueryTimeout, msg)
	case wire.ErrCodeMemory:
		return fmt.Errorf("%w: %s", ErrMemoryLimit, msg)
	case wire.ErrCodeRejected:
		return fmt.Errorf("%w: %s", ErrRejected, msg)
	case wire.ErrCodeShutdown:
		return fmt.Errorf("%w: %s", ErrShutdown, msg)
	default:
		return fmt.Errorf("client: server error: %s", msg)
	}
}

// Conn is one client connection. The request/response flow is single-
// threaded (matching a PL/SQL session); Cancel is the one exception — it may
// be called from another goroutine while a statement is in flight, so writes
// to the socket serialize on an internal mutex.
type Conn struct {
	c  net.Conn
	br *bufio.Reader
	// wmu guards bw and the underlying socket's write side: the session
	// goroutine and a concurrent Cancel both frame messages through it.
	wmu sync.Mutex
	bw  *bufio.Writer
	// FetchSize is rows per MsgFetch round trip. 1 reproduces a row-at-a-
	// time cursor loop; the benchmark harness can raise it to show how much
	// of the outside-the-server penalty is round trips vs shipping.
	FetchSize int
	// OpTimeout, when positive, bounds each protocol round trip: the socket
	// deadline is armed before every request and cleared after its reply.
	// A fetch against a slow query counts as one round trip, so set it
	// comfortably above the slowest expected statement.
	OpTimeout time.Duration
}

// RetryPolicy bounds DialRetry's reconnection attempts: capped exponential
// backoff with jitter. Retries apply only to connection establishment —
// never to statements, which are not known to be idempotent.
type RetryPolicy struct {
	// Attempts is the total number of dial attempts (minimum 1).
	Attempts int
	// BaseDelay is the wait before the first retry (default 25ms); each
	// subsequent wait doubles.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 1s).
	MaxDelay time.Duration
	// MaxElapsed, when positive, caps the total time spent dialing across
	// all attempts: no retry sleep begins that would cross the cap.
	MaxElapsed time.Duration
}

// DefaultRetry is a sensible policy for servers that may still be binding
// their listener when the client starts.
var DefaultRetry = RetryPolicy{Attempts: 5, BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second}

// Dialer parameterizes connection establishment. The zero value dials once
// with no per-operation deadline.
type Dialer struct {
	// Retry is the reconnection policy (zero value: one attempt).
	Retry RetryPolicy
	// OpTimeout seeds Conn.OpTimeout on every connection dialed.
	OpTimeout time.Duration
	// Wrap, when set, wraps the raw socket before the protocol runs over
	// it — the client half of the fault-injection seam (netfault.Wrap).
	Wrap func(net.Conn) net.Conn
}

// Dial connects to a mural server with a single attempt.
func Dial(addr string) (*Conn, error) {
	return DialRetry(addr, RetryPolicy{Attempts: 1})
}

// DialRetry connects to a mural server, retrying transient dial failures
// under the policy. The error after the final attempt wraps the last
// failure seen.
func DialRetry(addr string, p RetryPolicy) (*Conn, error) {
	return Dialer{Retry: p}.Dial(addr)
}

// Dial connects under the dialer's retry policy, wrapping the socket and
// arming the per-operation deadline on success.
func (d Dialer) Dial(addr string) (*Conn, error) {
	p := d.Retry
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	base := p.BaseDelay
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	maxDelay := p.MaxDelay
	if maxDelay <= 0 {
		maxDelay = time.Second
	}
	start := time.Now()
	var lastErr error
	delay := base
	for i := 0; i < attempts; i++ {
		if i > 0 {
			// Full jitter over [delay/2, delay]: spreads reconnection storms
			// without ever waiting longer than the cap.
			sleep := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
			if p.MaxElapsed > 0 && time.Since(start)+sleep > p.MaxElapsed {
				return nil, fmt.Errorf("client: dial %s gave up after %s (%d attempts): %w",
					addr, time.Since(start).Round(time.Millisecond), i, lastErr)
			}
			time.Sleep(sleep)
			if delay *= 2; delay > maxDelay {
				delay = maxDelay
			}
		}
		c, err := net.Dial("tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		if d.Wrap != nil {
			c = d.Wrap(c)
		}
		return &Conn{
			c:         c,
			br:        bufio.NewReaderSize(c, 64<<10),
			bw:        bufio.NewWriterSize(c, 64<<10),
			FetchSize: 1,
			OpTimeout: d.OpTimeout,
		}, nil
	}
	return nil, fmt.Errorf("client: dial %s failed after %d attempts: %w", addr, attempts, lastErr)
}

// writeFrame frames and flushes one message under the write lock.
func (c *Conn) writeFrame(typ wire.MsgType, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := wire.Write(c.bw, typ, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// armDeadline starts the per-operation clock (no-op when OpTimeout is 0).
func (c *Conn) armDeadline() {
	if c.OpTimeout > 0 {
		_ = c.c.SetDeadline(time.Now().Add(c.OpTimeout))
	}
}

// clearDeadline stops the per-operation clock.
func (c *Conn) clearDeadline() {
	if c.OpTimeout > 0 {
		_ = c.c.SetDeadline(time.Time{})
	}
}

// Cancel asks the server to abort the statement currently executing on this
// connection. Safe to call from another goroutine while Exec or a fetch is
// blocked; the in-flight call then fails with ErrCanceled. Canceling an idle
// connection is a harmless no-op.
func (c *Conn) Cancel() error {
	return c.writeFrame(wire.MsgCancel, nil)
}

// SetTraceID tags every subsequent statement on this connection with an
// 8-byte trace ID: when the server engine has a trace sink, each tagged
// statement exports its span tree (query, plan, operators) carrying this ID,
// regardless of the sampling rate. The tag is sticky until replaced; zero
// clears it. No reply frame — the message is ordered with the statements
// that follow it on the same socket.
func (c *Conn) SetTraceID(id uint64) error {
	return c.writeFrame(wire.MsgTrace, wire.EncodeTraceID(id))
}

// Close tears the connection down.
func (c *Conn) Close() error {
	_ = c.writeFrame(wire.MsgQuit, nil)
	return c.c.Close()
}

// Ping round-trips a no-op.
func (c *Conn) Ping() error {
	c.armDeadline()
	defer c.clearDeadline()
	if err := c.writeFrame(wire.MsgPing, nil); err != nil {
		return err
	}
	typ, _, err := wire.Read(c.br)
	if err != nil {
		return err
	}
	if typ != wire.MsgPong {
		return fmt.Errorf("client: unexpected reply 0x%02x to ping", typ)
	}
	return nil
}

// Exec runs a statement without result rows.
func (c *Conn) Exec(q string) (int64, error) {
	c.armDeadline()
	defer c.clearDeadline()
	if err := c.writeFrame(wire.MsgExec, []byte(q)); err != nil {
		return 0, err
	}
	typ, payload, err := wire.Read(c.br)
	if err != nil {
		return 0, err
	}
	switch typ {
	case wire.MsgOK:
		n, err := wire.DecodeUvarint(payload)
		return int64(n), err
	case wire.MsgErr:
		return 0, serverErr(payload)
	default:
		return 0, fmt.Errorf("client: unexpected reply 0x%02x", typ)
	}
}

// Cursor is an open server-side cursor.
type Cursor struct {
	Cols []string
	conn *Conn
	id   uint64
	buf  []types.Tuple
	done bool
	// RoundTrips counts fetch messages, the IPC metric of the baseline.
	RoundTrips int
}

// Query opens a cursor for a statement that returns rows.
func (c *Conn) Query(q string) (*Cursor, error) {
	c.armDeadline()
	defer c.clearDeadline()
	if err := c.writeFrame(wire.MsgQuery, []byte(q)); err != nil {
		return nil, err
	}
	reply, body, err := wire.Read(c.br)
	if err != nil {
		return nil, err
	}
	switch reply {
	case wire.MsgRowDesc:
		id, cols, err := wire.DecodeRowDesc(body)
		if err != nil {
			return nil, err
		}
		return &Cursor{Cols: cols, conn: c, id: id}, nil
	case wire.MsgErr:
		return nil, serverErr(body)
	case wire.MsgOK:
		return nil, fmt.Errorf("client: Query on a statement without rows")
	default:
		return nil, fmt.Errorf("client: unexpected reply 0x%02x", reply)
	}
}

// fetch pulls the next batch into the buffer.
func (cur *Cursor) fetch() error {
	size := cur.conn.FetchSize
	if size < 1 {
		size = 1
	}
	cur.conn.armDeadline()
	defer cur.conn.clearDeadline()
	if err := cur.conn.writeFrame(wire.MsgFetch, wire.EncodeFetch(cur.id, size)); err != nil {
		return err
	}
	cur.RoundTrips++
	for {
		typ, payload, err := wire.Read(cur.conn.br)
		if err != nil {
			return err
		}
		switch typ {
		case wire.MsgRow:
			t, err := wire.DecodeRow(payload)
			if err != nil {
				return err
			}
			cur.buf = append(cur.buf, t)
		case wire.MsgOK:
			return nil // batch boundary
		case wire.MsgEnd:
			cur.done = true
			return nil
		case wire.MsgErr:
			return serverErr(payload)
		default:
			return fmt.Errorf("client: unexpected reply 0x%02x", typ)
		}
	}
}

// Next returns the next row.
func (cur *Cursor) Next() (types.Tuple, bool, error) {
	for len(cur.buf) == 0 {
		if cur.done {
			return nil, false, nil
		}
		if err := cur.fetch(); err != nil {
			return nil, false, err
		}
	}
	t := cur.buf[0]
	cur.buf = cur.buf[1:]
	return t, true, nil
}

// All drains the cursor.
func (cur *Cursor) All() ([]types.Tuple, error) {
	var out []types.Tuple
	for {
		t, ok, err := cur.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, t)
	}
}

// Close releases the server-side cursor.
func (cur *Cursor) Close() error {
	if cur.done {
		return nil
	}
	cur.conn.armDeadline()
	defer cur.conn.clearDeadline()
	if err := cur.conn.writeFrame(wire.MsgClose, wire.EncodeUvarint(cur.id)); err != nil {
		return err
	}
	typ, payload, err := wire.Read(cur.conn.br)
	if err != nil {
		return err
	}
	if typ == wire.MsgErr {
		return serverErr(payload)
	}
	cur.done = true
	return nil
}

// RemoteAddr returns the server address this connection dialed.
func (c *Conn) RemoteAddr() string { return c.c.RemoteAddr().String() }
