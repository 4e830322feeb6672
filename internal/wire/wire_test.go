package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"github.com/mural-db/mural/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("SELECT * FROM names")
	if err := Write(&buf, MsgQuery, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgQuery || !bytes.Equal(got, payload) {
		t.Errorf("round trip: %v %q", typ, got)
	}
}

func TestEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgPing || len(got) != 0 {
		t.Error("empty payload round trip")
	}
}

func TestReadTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, MsgRow, []byte("data")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-2]
	if _, _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("truncated frame must error")
	}
	if _, _, err := Read(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: %v", err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var hdr [5]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0xFF
	hdr[4] = byte(MsgRow)
	if _, _, err := Read(bytes.NewReader(hdr[:])); err == nil {
		t.Error("oversize frame must be rejected before allocation")
	}
}

func TestRowDescRoundTrip(t *testing.T) {
	buf := EncodeRowDesc(42, []string{"id", "name", "यूनिकोड"})
	cursor, cols, err := DecodeRowDesc(buf)
	if err != nil {
		t.Fatal(err)
	}
	if cursor != 42 || len(cols) != 3 || cols[2] != "यूनिकोड" {
		t.Errorf("row desc: %d %v", cursor, cols)
	}
	if _, _, err := DecodeRowDesc(nil); err == nil {
		t.Error("empty row desc must error")
	}
	if _, _, err := DecodeRowDesc(buf[:3]); err == nil {
		t.Error("truncated row desc must error")
	}
}

func TestFetchRoundTrip(t *testing.T) {
	buf := EncodeFetch(7, 100)
	cursor, n, err := DecodeFetch(buf)
	if err != nil || cursor != 7 || n != 100 {
		t.Errorf("fetch: %d %d %v", cursor, n, err)
	}
	if _, _, err := DecodeFetch(nil); err == nil {
		t.Error("empty fetch must error")
	}
}

func TestRowRoundTrip(t *testing.T) {
	tup := types.Tuple{
		types.NewInt(-5),
		types.NewText("hello"),
		types.NewUniText(types.UniText{Text: "नेहरू", Lang: types.LangHindi, Phoneme: "neharu"}),
		types.Null(),
	}
	got, err := DecodeRow(EncodeRow(tup))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0].Int() != -5 || got[2].UniText().Phoneme != "neharu" {
		t.Errorf("row round trip: %v", got)
	}
}

// A row's wire bytes do not depend on how the server stores it: a UNITEXT
// value is its kind, language, text and phoneme, with none of the filter
// keys a heap slot keeps beside the row's record (types.AppendSlotKeys). The
// bytes are pinned, so a client of an older build still decodes every row.
func TestRowWireBytesPinned(t *testing.T) {
	row := types.Tuple{types.NewInt(7), types.NewUniText(types.UniText{Text: "Nehru", Lang: types.LangHindi, Phoneme: "nehɾu"})}
	const pinned = "02" + "020e" + "05" + "0002" + "054e65687275" + "066e6568c9be75"
	if got := hex.EncodeToString(EncodeRow(row)); got != pinned {
		t.Errorf("EncodeRow = %s, pinned %s", got, pinned)
	}
	if keys := types.AppendSlotKeys(nil, row, 1, 0x2a); bytes.Contains(EncodeRow(row), keys[:12]) {
		t.Error("the wire carries the UNITEXT value's filter keys")
	}
}

func TestStringCodecProperty(t *testing.T) {
	f := func(s string) bool {
		buf := AppendString(nil, s)
		got, n, err := ReadString(buf)
		return err == nil && got == s && n == len(buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		got, err := DecodeUvarint(EncodeUvarint(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := DecodeUvarint(nil); err == nil {
		t.Error("empty uvarint must error")
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		if err := Write(&buf, MsgRow, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		typ, payload, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != MsgRow || payload[0] != byte(i) {
			t.Errorf("frame %d: %v %v", i, typ, payload)
		}
	}
}

func TestOversizeFrameTypedError(t *testing.T) {
	var hdr [5]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0xFF
	hdr[4] = byte(MsgRow)
	_, _, err := Read(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize read error = %v, want ErrTooLarge sentinel", err)
	}
}

func TestWriteRefusesOversizePayload(t *testing.T) {
	var buf bytes.Buffer
	err := Write(&buf, MsgRow, make([]byte, MaxPayload+1))
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize write error = %v, want ErrTooLarge sentinel", err)
	}
	if buf.Len() != 0 {
		t.Errorf("refused write still emitted %d bytes", buf.Len())
	}
	// Exactly MaxPayload is legal on both sides.
	if err := Write(&buf, MsgRow, make([]byte, MaxPayload)); err != nil {
		t.Fatalf("max-size write: %v", err)
	}
	if _, _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("max-size read: %v", err)
	}
}

func TestErrCodecRoundTrip(t *testing.T) {
	codes := []ErrCode{ErrCodeGeneric, ErrCodeCanceled, ErrCodeTimeout,
		ErrCodeMemory, ErrCodeRejected, ErrCodeShutdown}
	for _, code := range codes {
		buf := EncodeErr(code, "something broke")
		gotCode, gotMsg := DecodeErr(buf)
		if gotCode != code || gotMsg != "something broke" {
			t.Errorf("round trip code %#x = (%#x, %q)", code, gotCode, gotMsg)
		}
	}
}

// Pre-ErrCode servers sent the bare message as the MsgErr payload; the first
// byte of any human-readable message is printable (>= 0x20), so DecodeErr
// must classify those as generic with nothing stripped.
func TestErrCodecLegacyPayload(t *testing.T) {
	code, msg := DecodeErr([]byte("mural: table missing"))
	if code != ErrCodeGeneric || msg != "mural: table missing" {
		t.Errorf("legacy payload = (%#x, %q)", code, msg)
	}
	code, msg = DecodeErr(nil)
	if code != ErrCodeGeneric || msg == "" {
		t.Errorf("empty payload = (%#x, %q), want generic with a message", code, msg)
	}
	// A bare code byte with no message still decodes.
	code, msg = DecodeErr([]byte{byte(ErrCodeTimeout)})
	if code != ErrCodeTimeout || msg != "" {
		t.Errorf("bare code = (%#x, %q)", code, msg)
	}
}

// Every ErrCode constant must stay below 0x20 or the legacy heuristic in
// DecodeErr misclassifies coded payloads.
func TestErrCodesBelowPrintableRange(t *testing.T) {
	for _, code := range []ErrCode{ErrCodeGeneric, ErrCodeCanceled, ErrCodeTimeout,
		ErrCodeMemory, ErrCodeRejected, ErrCodeShutdown} {
		if code >= 0x20 {
			t.Errorf("ErrCode %#x collides with printable ASCII", code)
		}
	}
}

func TestCancelFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, MsgCancel, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgCancel || len(payload) != 0 {
		t.Errorf("cancel frame = (%#x, %d bytes)", typ, len(payload))
	}
}
