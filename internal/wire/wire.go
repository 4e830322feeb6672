// Package wire defines the binary client/server protocol used by the
// outside-the-server implementation path. The paper's baseline evaluates
// the multilingual operators "outside the server using standard database
// features (PL/SQL procedures, SQL scripts...)"; its costs come from UDF
// invocation overhead, process-space crossing and row shipping. This
// protocol reproduces those costs mechanically: every row crosses a socket,
// length-prefixed and re-encoded, and every cursor fetch is a round trip.
//
// Message framing:
//
//	uint32  payload length (big endian)
//	byte    message type
//	payload
//
// Payload contents use the types package tuple codec plus uvarint/string
// helpers, so a tuple travels in exactly its storage encoding.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/mural-db/mural/internal/types"
)

// MsgType tags a protocol message.
type MsgType byte

// Client → server messages.
const (
	MsgQuery  MsgType = 0x01 // SQL text; opens a cursor for SELECT
	MsgExec   MsgType = 0x02 // SQL text; statement without result rows
	MsgFetch  MsgType = 0x03 // cursor id (uvarint), max rows (uvarint)
	MsgClose  MsgType = 0x04 // cursor id (uvarint)
	MsgPing   MsgType = 0x05
	MsgQuit   MsgType = 0x06
	MsgCancel MsgType = 0x07 // abort the in-flight statement; no reply frame
	MsgTrace  MsgType = 0x08 // 8-byte big-endian trace ID, sticky for the session; no reply frame
	// 0x09 is retired (it carried plan fragments) and must not be reused, so
	// an old peer's frame of that type cannot read as some other request.
)

// Server → client messages.
const (
	MsgRowDesc MsgType = 0x81 // cursor id, column count, column names
	MsgRow     MsgType = 0x82 // one tuple
	MsgEnd     MsgType = 0x83 // cursor exhausted
	MsgOK      MsgType = 0x84 // rows affected (uvarint)
	MsgErr     MsgType = 0x85 // error string
	MsgPong    MsgType = 0x86
)

// ErrCode classifies a MsgErr payload so clients can map server failures to
// typed errors without parsing message text. Codes stay below 0x20 (ASCII
// control range): a legacy MsgErr payload starts with its message text, whose
// first byte is printable, so DecodeErr can tell the two formats apart.
type ErrCode byte

const (
	ErrCodeGeneric  ErrCode = 0x01 // uncategorized statement failure
	ErrCodeCanceled ErrCode = 0x02 // statement aborted by client cancel
	ErrCodeTimeout  ErrCode = 0x03 // statement exceeded its deadline
	ErrCodeMemory   ErrCode = 0x04 // statement exceeded its memory budget
	ErrCodeRejected ErrCode = 0x05 // admission control refused the statement
	ErrCodeShutdown ErrCode = 0x06 // server is draining / shut down
)

// EncodeErr builds a MsgErr payload: one code byte followed by the message.
func EncodeErr(code ErrCode, msg string) []byte {
	buf := make([]byte, 0, 1+len(msg))
	buf = append(buf, byte(code))
	return append(buf, msg...)
}

// DecodeErr splits a MsgErr payload into code and message. Payloads from
// servers predating error codes carry bare text; those (first byte printable,
// or empty) decode as ErrCodeGeneric with the whole payload as the message.
func DecodeErr(buf []byte) (ErrCode, string) {
	if len(buf) == 0 {
		return ErrCodeGeneric, "unknown error"
	}
	if buf[0] >= 0x20 {
		return ErrCodeGeneric, string(buf)
	}
	return ErrCode(buf[0]), string(buf[1:])
}

// MaxPayload caps one frame's payload. A corrupt or hostile length prefix
// must not drive a multi-gigabyte allocation: readers reject oversized
// frames with ErrTooLarge BEFORE allocating, and the server answers with a
// protocol error and closes the connection cleanly.
const MaxPayload = 16 << 20

// ErrTooLarge reports a frame whose length prefix exceeds MaxPayload. It is
// a distinct sentinel (check with errors.Is) so the server can tell a
// protocol violation from an I/O failure and still send MsgErr before
// hanging up.
var ErrTooLarge = errors.New("wire: frame exceeds MaxPayload")

// Write frames one message. Payloads over MaxPayload are refused: a peer
// honoring the read-side clamp could never parse them.
func Write(w io.Writer, typ MsgType, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("%w (writing %d bytes)", ErrTooLarge, len(payload))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(typ)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("wire: write payload: %w", err)
		}
	}
	return nil
}

// Read unframes one message, rejecting frames beyond MaxPayload with
// ErrTooLarge before any payload allocation.
func Read(r io.Reader) (MsgType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("%w (frame of %d bytes)", ErrTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: read payload: %w", err)
	}
	return MsgType(hdr[4]), payload, nil
}

// AppendString appends a uvarint-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// ReadString decodes a uvarint-prefixed string, returning it and the bytes
// consumed.
func ReadString(buf []byte) (string, int, error) {
	l, sz := binary.Uvarint(buf)
	if sz <= 0 || uint64(len(buf)-sz) < l {
		return "", 0, fmt.Errorf("wire: bad string")
	}
	return string(buf[sz : sz+int(l)]), sz + int(l), nil
}

// EncodeTraceID builds a MsgTrace payload: the trace ID as 8 big-endian
// bytes. The ID tags every subsequent statement on the session until
// replaced; 0 clears it.
func EncodeTraceID(id uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], id)
	return buf[:]
}

// DecodeTraceID parses a MsgTrace payload.
func DecodeTraceID(buf []byte) (uint64, error) {
	if len(buf) != 8 {
		return 0, fmt.Errorf("wire: bad trace id payload (%d bytes)", len(buf))
	}
	return binary.BigEndian.Uint64(buf), nil
}

// EncodeRowDesc builds a MsgRowDesc payload.
func EncodeRowDesc(cursor uint64, cols []string) []byte {
	buf := binary.AppendUvarint(nil, cursor)
	buf = binary.AppendUvarint(buf, uint64(len(cols)))
	for _, c := range cols {
		buf = AppendString(buf, c)
	}
	return buf
}

// DecodeRowDesc parses a MsgRowDesc payload.
func DecodeRowDesc(buf []byte) (cursor uint64, cols []string, err error) {
	cursor, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, nil, fmt.Errorf("wire: bad row desc cursor")
	}
	pos := sz
	n, sz := binary.Uvarint(buf[pos:])
	if sz <= 0 {
		return 0, nil, fmt.Errorf("wire: bad row desc count")
	}
	pos += sz
	// Every column takes at least its length byte, so the payload bounds the
	// count: a hostile count must not size the allocation.
	if n > uint64(len(buf)-pos) {
		return 0, nil, fmt.Errorf("wire: row desc claims %d columns in %d bytes", n, len(buf)-pos)
	}
	cols = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		s, consumed, err := ReadString(buf[pos:])
		if err != nil {
			return 0, nil, err
		}
		cols = append(cols, s)
		pos += consumed
	}
	return cursor, cols, nil
}

// EncodeFetch builds a MsgFetch payload.
func EncodeFetch(cursor uint64, maxRows int) []byte {
	buf := binary.AppendUvarint(nil, cursor)
	return binary.AppendUvarint(buf, uint64(maxRows))
}

// DecodeFetch parses a MsgFetch payload.
func DecodeFetch(buf []byte) (cursor uint64, maxRows int, err error) {
	cursor, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, 0, fmt.Errorf("wire: bad fetch cursor")
	}
	n, sz2 := binary.Uvarint(buf[sz:])
	if sz2 <= 0 {
		return 0, 0, fmt.Errorf("wire: bad fetch count")
	}
	return cursor, int(n), nil
}

// EncodeRow serializes a tuple.
func EncodeRow(t types.Tuple) []byte { return types.EncodeTuple(t) }

// DecodeRow deserializes a tuple.
func DecodeRow(buf []byte) (types.Tuple, error) {
	t, _, err := types.DecodeTuple(buf)
	return t, err
}

// EncodeUvarint / DecodeUvarint wrap single-integer payloads (cursor ids,
// row counts).
func EncodeUvarint(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// DecodeUvarint parses a single uvarint payload.
func DecodeUvarint(buf []byte) (uint64, error) {
	v, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, fmt.Errorf("wire: bad uvarint payload")
	}
	return v, nil
}
