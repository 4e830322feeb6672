// Package server exposes a mural Engine over the wire protocol: the
// "inside" half of the outside-the-server experimental setup. One goroutine
// per connection; cursors are per-connection state, fetched row-at-a-time
// or in batches exactly as a PL/SQL cursor loop would.
//
// Each connection runs two goroutines: a read pump that unframes inbound
// messages, and the session loop that executes them in arrival order. The
// split is what makes wire-level cancellation work — while a statement is
// executing, the pump keeps reading, so a MsgCancel arriving mid-statement
// cancels the statement's context immediately instead of queueing behind it.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/mural-db/mural/internal/obs"
	"github.com/mural-db/mural/internal/wire"
	"github.com/mural-db/mural/mural"
)

// Server serves one engine over TCP (or any net.Listener).
type Server struct {
	eng *mural.Engine

	// IdleTimeout bounds how long a connection may sit between requests;
	// exceeding it closes the connection. Zero means no limit. It never
	// fires while a statement is executing on the connection. Set before
	// Start.
	IdleTimeout time.Duration

	// ConnWrap, when set, wraps every accepted socket before the protocol
	// runs over it — the server half of the fault-injection seam
	// (netfault.Wrap). Set before Start.
	ConnWrap func(net.Conn) net.Conn

	// baseCtx parents every statement context; baseCancel aborts them all
	// (forced shutdown).
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener
	closed   bool
	draining bool
	sessions map[net.Conn]*session
	wg       sync.WaitGroup
}

// New wraps an engine.
func New(eng *mural.Engine) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{eng: eng, sessions: make(map[net.Conn]*session), baseCtx: ctx, baseCancel: cancel}
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and serves in
// the background. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.ConnWrap != nil {
			conn = s.ConnWrap(conn)
		}
		sess := &session{db: s.eng.Session(), cursors: make(map[uint64]*cursorState), nextID: 1}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			_ = conn.Close()
			if s.isClosed() {
				return
			}
			continue
		}
		s.sessions[conn] = sess
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn, sess)
			s.mu.Lock()
			delete(s.sessions, conn)
			s.mu.Unlock()
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close stops the listener and all connections immediately (no drain).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for c := range s.sessions {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
	return nil
}

// Shutdown drains the server gracefully: the listener stops accepting, idle
// connections close, and connections with a statement executing or a cursor
// open get to finish. Statements arriving during the drain are refused with
// a shutdown error. If ctx expires first, every remaining statement is
// canceled (surfacing ErrCanceled to its client) and the connections are
// torn down; Shutdown then returns ctx's error.
//
// Durability needs no special casing here: a statement only reports success
// after its WAL group commit is synced, so every statement this drain lets
// finish is already durable when Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.mu.Unlock()

	forced := false
	for {
		s.mu.Lock()
		busy := 0
		for c, sess := range s.sessions {
			if sess.active() {
				busy++
			} else {
				// Idle connection: closing it unblocks the read pump, and the
				// session winds down through its normal defer path.
				_ = c.Close()
			}
		}
		s.mu.Unlock()
		if busy == 0 {
			break
		}
		select {
		case <-ctx.Done():
			forced = true
			s.baseCancel()
			s.mu.Lock()
			for c := range s.sessions {
				_ = c.Close()
			}
			s.mu.Unlock()
		case <-time.After(2 * time.Millisecond):
		}
		if forced {
			break
		}
	}
	s.wg.Wait()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if forced {
		return ctx.Err()
	}
	return nil
}

// cursorState is one open cursor plus the cancel of its query context (the
// context must outlive the MsgQuery dispatch: it governs every later fetch).
type cursorState struct {
	rows   *mural.Rows
	cancel context.CancelFunc
}

// session is per-connection state; a SET lasts as long as its db. The
// cursors map belongs to the session loop alone; the mutex-guarded fields are
// shared with the read pump (which fires cancels) and with Shutdown (which
// polls activity).
type session struct {
	db      *mural.Session
	cursors map[uint64]*cursorState
	nextID  uint64
	// traceID tags every statement on this connection until the client
	// replaces it (MsgTrace; zero clears). Like cursors, it belongs to the
	// session loop alone: MsgTrace rides the ordered frame queue, so the tag
	// applies exactly to the statements that follow it on the wire.
	traceID uint64

	mu sync.Mutex
	// cancel aborts the statement currently executing (nil when idle).
	cancel context.CancelFunc
	// busy marks a dispatch in progress; open counts live cursors. Either
	// keeps the connection alive through a graceful drain.
	busy bool
	open int
}

// stmtCtx derives the context a statement executes under: the server's base
// context, tagged with the session's trace ID when the client set one.
func (sess *session) stmtCtx(base context.Context) context.Context {
	if sess.traceID == 0 {
		return base
	}
	return obs.WithTraceID(base, sess.traceID)
}

// begin registers ctx's cancel as the connection's in-flight statement and
// returns the matching deregistration.
func (sess *session) begin(cancel context.CancelFunc) func() {
	sess.mu.Lock()
	sess.cancel = cancel
	sess.busy = true
	sess.mu.Unlock()
	return func() {
		sess.mu.Lock()
		sess.cancel = nil
		sess.busy = false
		sess.mu.Unlock()
	}
}

// cancelCurrent aborts the in-flight statement, if any (the MsgCancel path;
// called from the read pump).
func (sess *session) cancelCurrent() {
	sess.mu.Lock()
	if sess.cancel != nil {
		sess.cancel()
	}
	sess.mu.Unlock()
}

// active reports whether the connection holds work a graceful drain should
// wait for: an executing statement or an open cursor.
func (sess *session) active() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.busy || sess.open > 0
}

func (sess *session) isBusy() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.busy
}

func (sess *session) setOpen(n int) {
	sess.mu.Lock()
	sess.open = n
	sess.mu.Unlock()
}

// frame is one inbound message (or the read error that ended the stream).
type frame struct {
	typ     wire.MsgType
	payload []byte
	err     error
}

// readPump unframes inbound messages onto out until the connection dies.
// MsgCancel never reaches the queue: it takes effect here, immediately, even
// while the session loop is deep in a statement. The idle deadline re-arms
// without killing the connection as long as a statement is executing (the
// client is waiting on us, not idling).
func (s *Server) readPump(conn net.Conn, br *bufio.Reader, sess *session, out chan<- frame) {
	defer close(out)
	for {
		if s.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		}
		typ, payload, err := wire.Read(br)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && sess.isBusy() {
				continue
			}
			out <- frame{err: err}
			return
		}
		if typ == wire.MsgCancel {
			mCancels.Inc()
			sess.cancelCurrent()
			continue
		}
		out <- frame{typ: typ, payload: payload}
	}
}

func (s *Server) serveConn(conn net.Conn, sess *session) {
	defer func() { _ = conn.Close() }()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	defer func() {
		for _, cs := range sess.cursors {
			cs.cancel()
			_ = cs.rows.Close()
		}
	}()
	inbound := make(chan frame)
	go s.readPump(conn, br, sess, inbound)
	// Drain the pump on exit so its goroutine never blocks on a send to a
	// loop that already returned.
	defer func() {
		_ = conn.Close() // unblock a pump stuck in Read
		for range inbound {
		}
	}()
	for f := range inbound {
		if f.err != nil {
			err := f.err
			var ne net.Error
			switch {
			case errors.As(err, &ne) && ne.Timeout():
				mIdleTimeouts.Inc()
			case errors.Is(err, wire.ErrTooLarge):
				// Protocol violation, not an I/O failure: the peer sent a
				// frame we refuse to allocate. Tell it why, then hang up
				// cleanly (the oversized payload is never read, so the
				// stream cannot be resynchronized).
				mProtocolErrors.Inc()
				mErrors.Inc()
				_ = wire.Write(bw, wire.MsgErr, wire.EncodeErr(wire.ErrCodeGeneric, err.Error()))
				_ = bw.Flush()
			case !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed):
				// Connection torn down mid-frame; nothing to report to.
				_ = err
			}
			return
		}
		if err := s.dispatchSafe(bw, sess, f.typ, f.payload); err != nil {
			// Best effort: push any queued error frame out before closing.
			_ = bw.Flush()
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// dispatchSafe contains a panic from statement execution (a registered
// operator gone wrong, say) to this one connection: the client gets a
// MsgErr and a closed connection; the process and every other connection
// survive.
func (s *Server) dispatchSafe(w io.Writer, sess *session, typ wire.MsgType, payload []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			mPanics.Inc()
			mErrors.Inc()
			_ = wire.Write(w, wire.MsgErr, wire.EncodeErr(wire.ErrCodeGeneric, fmt.Sprintf("server: internal error: %v", r)))
			err = fmt.Errorf("server: panic in dispatch: %v", r)
		}
	}()
	return s.dispatch(w, sess, typ, payload)
}

// errCode classifies a statement failure for the wire.
func errCode(err error) wire.ErrCode {
	switch {
	case errors.Is(err, mural.ErrCanceled):
		return wire.ErrCodeCanceled
	case errors.Is(err, mural.ErrQueryTimeout):
		return wire.ErrCodeTimeout
	case errors.Is(err, mural.ErrMemoryLimit):
		return wire.ErrCodeMemory
	case errors.Is(err, mural.ErrAdmissionRejected):
		return wire.ErrCodeRejected
	default:
		return wire.ErrCodeGeneric
	}
}

func (s *Server) dispatch(w io.Writer, sess *session, typ wire.MsgType, payload []byte) error {
	mRequests.Inc()
	start := time.Now()
	defer func() { mReqLatNs.Observe(int64(time.Since(start))) }()
	sendErr := func(err error) error {
		mErrors.Inc()
		return wire.Write(w, wire.MsgErr, wire.EncodeErr(errCode(err), err.Error()))
	}
	switch typ {
	case wire.MsgPing:
		return wire.Write(w, wire.MsgPong, nil)
	case wire.MsgQuit:
		return fmt.Errorf("quit")
	case wire.MsgTrace:
		id, err := wire.DecodeTraceID(payload)
		if err != nil {
			return sendErr(err)
		}
		sess.traceID = id
		return nil // no reply: the frame only re-tags the session
	case wire.MsgExec, wire.MsgQuery:
		return s.statement(w, sess, typ, payload, sendErr)
	case wire.MsgFetch:
		id, maxRows, err := wire.DecodeFetch(payload)
		if err != nil {
			return sendErr(err)
		}
		cs, ok := sess.cursors[id]
		if !ok {
			return sendErr(fmt.Errorf("server: no such cursor %d", id))
		}
		// A fetch is cancelable like a statement: MsgCancel mid-fetch fires
		// the cursor's query context.
		done := sess.begin(cs.cancel)
		closeCursor := func() {
			cs.cancel()
			_ = cs.rows.Close()
			delete(sess.cursors, id)
			sess.setOpen(len(sess.cursors))
		}
		for i := 0; i < maxRows; i++ {
			t, more, err := cs.rows.Next()
			if err != nil {
				done()
				closeCursor()
				return sendErr(err)
			}
			if !more {
				done()
				closeCursor()
				return wire.Write(w, wire.MsgEnd, nil)
			}
			if err := wire.Write(w, wire.MsgRow, wire.EncodeRow(t)); err != nil {
				done()
				return err
			}
		}
		done()
		// Batch boundary without exhaustion: client fetches again.
		return wire.Write(w, wire.MsgOK, wire.EncodeUvarint(uint64(maxRows)))
	case wire.MsgClose:
		id, err := wire.DecodeUvarint(payload)
		if err != nil {
			return sendErr(err)
		}
		if cs, ok := sess.cursors[id]; ok {
			cs.cancel()
			_ = cs.rows.Close()
			delete(sess.cursors, id)
			sess.setOpen(len(sess.cursors))
		}
		return wire.Write(w, wire.MsgOK, wire.EncodeUvarint(0))
	default:
		return sendErr(fmt.Errorf("server: unknown message type 0x%02x", typ))
	}
}

// statement serves the two messages that start a statement, MsgExec and
// MsgQuery. The text goes to the engine once, under a context MsgCancel can
// fire, and what comes back picks the reply: rows to stream become a cursor
// (MsgRowDesc), anything else is MsgOK with the rows affected. MsgExec asks for no rows, so the engine
// drains a SELECT sent that way and the reply is MsgOK(0).
func (s *Server) statement(w io.Writer, sess *session, typ wire.MsgType, payload []byte, sendErr func(error) error) error {
	if s.isDraining() {
		mErrors.Inc()
		return wire.Write(w, wire.MsgErr, wire.EncodeErr(wire.ErrCodeShutdown, "server: shutting down"))
	}
	// A cursor's context outlives this dispatch: it governs every later
	// fetch, so it is canceled at cursor close, not here.
	ctx, cancel := context.WithCancel(sess.stmtCtx(s.baseCtx))
	done := sess.begin(cancel)
	var rows *mural.Rows
	var affected int64
	var err error
	switch typ {
	case wire.MsgExec:
		var res *mural.Result
		if res, err = sess.db.ExecContext(ctx, string(payload)); err == nil {
			affected = res.RowsAffected
		}
	case wire.MsgQuery:
		rows, err = sess.db.QueryContext(ctx, string(payload))
	}
	done()
	if err != nil {
		cancel()
		return sendErr(err)
	}
	if rows != nil && len(rows.Cols) == 0 {
		affected = rows.RowsAffected
		_ = rows.Close()
		rows = nil
	}
	if rows == nil {
		cancel()
		return wire.Write(w, wire.MsgOK, wire.EncodeUvarint(uint64(affected)))
	}
	id := sess.nextID
	sess.nextID++
	sess.cursors[id] = &cursorState{rows: rows, cancel: cancel}
	sess.setOpen(len(sess.cursors))
	return wire.Write(w, wire.MsgRowDesc, wire.EncodeRowDesc(id, rows.Cols))
}
