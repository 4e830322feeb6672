package wire

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"github.com/mural-db/mural/internal/types"
)

// FuzzDecodePayloads feeds one payload to every decoder that reads a frame
// from the network. None may panic or size an allocation by a count the
// payload cannot hold, and a payload that decodes re-encodes to one that
// decodes to the same value.
func FuzzDecodePayloads(f *testing.F) {
	huge := binary.AppendUvarint(nil, 1<<62)
	for _, seed := range [][]byte{
		nil,
		{0},
		EncodeRowDesc(42, []string{"id", "name", "यूनिकोड"}),
		EncodeRowDesc(0, nil),
		append(EncodeUvarint(1), huge...), // a row desc claiming 2^62 columns
		EncodeFetch(7, 100),
		EncodeFetch(1, -1),
		EncodeUvarint(1 << 63),
		bytes.Repeat([]byte{0xff}, 11), // a uvarint that overflows
		EncodeTraceID(0xdeadbeef),
		EncodeErr(ErrCodeCanceled, "canceled"),
		[]byte("legacy error text"),
		EncodeRow(types.Tuple{types.NewInt(-5), types.NewText("hello"), types.Null()}),
		EncodeRow(types.Tuple{types.NewUniText(types.UniText{Text: "नेहरू", Lang: types.LangHindi, Phoneme: "neharu"})}),
		huge, // a row claiming 2^62 columns
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		if cursor, cols, err := DecodeRowDesc(buf); err == nil {
			c2, cols2, err := DecodeRowDesc(EncodeRowDesc(cursor, cols))
			if err != nil || c2 != cursor || !slices.Equal(cols2, cols) {
				t.Errorf("row desc %d %q re-decodes as %d %q, %v", cursor, cols, c2, cols2, err)
			}
		}
		if cursor, n, err := DecodeFetch(buf); err == nil {
			c2, n2, err := DecodeFetch(EncodeFetch(cursor, n))
			if err != nil || c2 != cursor || n2 != n {
				t.Errorf("fetch %d,%d re-decodes as %d,%d, %v", cursor, n, c2, n2, err)
			}
		}
		if v, err := DecodeUvarint(buf); err == nil {
			if v2, err := DecodeUvarint(EncodeUvarint(v)); err != nil || v2 != v {
				t.Errorf("uvarint %d re-decodes as %d, %v", v, v2, err)
			}
		}
		if id, err := DecodeTraceID(buf); err == nil && !bytes.Equal(EncodeTraceID(id), buf) {
			t.Errorf("trace id %x re-encodes as %x, want %x", id, EncodeTraceID(id), buf)
		}
		code, msg := DecodeErr(buf)
		if c2, msg2 := DecodeErr(EncodeErr(code, msg)); len(buf) > 0 && (c2 != code || msg2 != msg) {
			t.Errorf("error %d %q re-decodes as %d %q", code, msg, c2, msg2)
		}
		if row, err := DecodeRow(buf); err == nil {
			enc := EncodeRow(row)
			row2, err := DecodeRow(enc)
			if err != nil || !bytes.Equal(EncodeRow(row2), enc) {
				t.Errorf("row %v re-decodes as %v, %v", row, row2, err)
			}
		}
	})
}
