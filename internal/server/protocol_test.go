package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/mural-db/mural/internal/client"
	"github.com/mural-db/mural/internal/wire"
	"github.com/mural-db/mural/mural"
)

// A hostile length prefix must get a MsgErr naming the violation and a clean
// close — not a 4 GiB allocation, not a silent hangup, and the process (and
// other connections) must keep serving.
func TestServerRejectsOversizedFrame(t *testing.T) {
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

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))

	// Craft a frame claiming a payload just past the clamp.
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(wire.MaxPayload+1))
	hdr[4] = byte(wire.MsgExec)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(conn)
	typ, payload, err := wire.Read(br)
	if err != nil {
		t.Fatalf("expected a MsgErr frame before close, got read error: %v", err)
	}
	if typ != wire.MsgErr {
		t.Fatalf("reply type = 0x%02x, want MsgErr", typ)
	}
	if len(payload) == 0 {
		t.Error("protocol error reply carries no message")
	}
	// The server must then hang up: the oversized payload was never consumed,
	// so the stream cannot be resynchronized.
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("after MsgErr: read = %v, want EOF (clean close)", err)
	}

	// The listener survives: a fresh connection still serves.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	_ = conn2.SetDeadline(time.Now().Add(5 * time.Second))
	bw := bufio.NewWriter(conn2)
	if err := wire.Write(bw, wire.MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, _, err = wire.Read(bufio.NewReader(conn2))
	if err != nil || typ != wire.MsgPong {
		t.Fatalf("ping after protocol error: typ=0x%02x err=%v", typ, err)
	}
}

// rawConn dials the server under c and returns a function that writes one
// frame on that connection and reads the one reply.
func rawConn(t *testing.T, c *client.Conn) func(wire.MsgType, []byte) (wire.MsgType, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", c.RemoteAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	bw, br := bufio.NewWriter(conn), bufio.NewReader(conn)
	return func(typ wire.MsgType, payload []byte) (wire.MsgType, []byte) {
		t.Helper()
		if err := wire.Write(bw, typ, payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		reply, body, err := wire.Read(br)
		if err != nil {
			t.Fatalf("reply to 0x%02x: %v", typ, err)
		}
		return reply, body
	}
}

// Message type 0x09 once carried plan fragments and is retired: a frame of
// that type gets a MsgErr naming it, as any unknown type does, and the
// connection keeps serving.
func TestServerRejectsRetiredMessageType(t *testing.T) {
	_, c := startServer(t)
	roundTrip := rawConn(t, c)
	reply, body := roundTrip(wire.MsgType(0x09), []byte{0, 1, 2})
	if _, msg := wire.DecodeErr(body); reply != wire.MsgErr || !strings.Contains(msg, "unknown message type 0x09") {
		t.Errorf("0x09 frame: reply 0x%02x %q, want MsgErr naming the type", reply, msg)
	}
	if reply, _ := roundTrip(wire.MsgPing, nil); reply != wire.MsgPong {
		t.Errorf("ping after the 0x09 frame: reply 0x%02x, want MsgPong", reply)
	}
}

// A request type the protocol does not assign, and a reply type a client
// sends back, each get a MsgErr naming the type, and the connection keeps
// serving: a confused or newer peer cannot take a session down.
func TestServerRejectsUnknownMessageTypes(t *testing.T) {
	_, c := startServer(t)
	for _, typ := range []wire.MsgType{0x00, 0x0a, 0x7f, wire.MsgRowDesc, wire.MsgRow, wire.MsgErr, wire.MsgPong, 0xff} {
		t.Run(fmt.Sprintf("0x%02x", byte(typ)), func(t *testing.T) {
			roundTrip := rawConn(t, c)
			reply, body := roundTrip(typ, []byte("payload"))
			if _, msg := wire.DecodeErr(body); reply != wire.MsgErr || !strings.Contains(msg, fmt.Sprintf("unknown message type 0x%02x", byte(typ))) {
				t.Errorf("reply 0x%02x %q, want MsgErr naming the type", reply, msg)
			}
			if reply, _ := roundTrip(wire.MsgPing, nil); reply != wire.MsgPong {
				t.Errorf("ping after the frame: reply 0x%02x, want MsgPong", reply)
			}
		})
	}
}
