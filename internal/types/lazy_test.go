package types

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

func lazyFixtureTuple() Tuple {
	return Tuple{
		Null(),
		NewBool(true),
		NewInt(-123456),
		NewFloat(3.25),
		NewText("plain text"),
		NewUniText(UniText{Text: "Nasser", Lang: LangEnglish, Phoneme: "nasər"}),
		NewUniText(UniText{Text: "empty", Lang: LangTamil}),
	}
}

func kindsOf(t Tuple) []Kind {
	kinds := make([]Kind, len(t))
	for i, v := range t {
		kinds[i] = v.Kind()
	}
	return kinds
}

func seek(t *testing.T, kinds []Kind, rec []byte, idx int) []byte {
	t.Helper()
	p, ok := NewSkipPlan(kinds, idx)
	if !ok {
		t.Fatalf("NewSkipPlan(%v, %d) not ok", kinds, idx)
	}
	field, err := p.Seek(rec)
	if err != nil {
		t.Fatalf("Seek(%d): %v", idx, err)
	}
	return field
}

// Seek must land on exactly the byte DecodeValue starts that column at, for
// every column and kind — whether the schema
// declares the kinds the record holds (the fast steps) or something else
// entirely (NULLs in typed columns, a stale declaration: the generic steps).
func TestSkipPlanMatchesDecode(t *testing.T) {
	tup := lazyFixtureTuple()
	wrong := make([]Kind, len(tup))
	for i := range wrong {
		wrong[i] = KindInt
	}
	for _, rec := range [][]byte{EncodeTuple(tup)} {
		for name, kinds := range map[string][]Kind{"declared": kindsOf(tup), "mismatched": wrong} {
			for i, want := range tup {
				v, _, err := DecodeValue(seek(t, kinds, rec, i))
				if err != nil {
					t.Fatalf("%s: DecodeValue(field %d): %v", name, i, err)
				}
				if !equalIncludingPhoneme(v, want) && !(v.IsNull() && want.IsNull()) {
					t.Errorf("%s: field %d: decoded %v, want %v", name, i, v, want)
				}
			}
		}
	}
	rec := EncodeTuple(tup)
	// A multi-byte varint ahead of the target.
	rec = EncodeTuple(Tuple{NewInt(1 << 40), NewInt(-1 << 40), NewText("x")})
	v, _, err := DecodeValue(seek(t, []Kind{KindInt, KindInt, KindText}, rec, 2))
	if err != nil || v.Text() != "x" {
		t.Errorf("past two wide ints: %v, %v", v, err)
	}
}

func TestSkipPlanOutOfRange(t *testing.T) {
	kinds := []Kind{KindInt, KindInt}
	if _, ok := NewSkipPlan(kinds, 2); ok {
		t.Error("a plan past the last declared column should not compile")
	}
	if _, ok := NewSkipPlan(kinds, -1); ok {
		t.Error("a plan for column -1 should not compile")
	}
	p, _ := NewSkipPlan(kinds, 1)
	if _, err := p.Seek(EncodeTuple(Tuple{NewInt(1)})); err == nil {
		t.Error("Seek past a narrower record's last column should fail")
	}
	if _, err := p.Seek([]byte{}); err == nil {
		t.Error("Seek on an empty record should fail")
	}
	// Truncated mid-record: the column count promises a second value.
	rec := EncodeTuple(Tuple{NewInt(1 << 40), NewInt(2)})
	for cut := 1; cut < len(rec)-1; cut++ {
		if _, err := p.Seek(rec[:cut]); err == nil {
			t.Errorf("Seek on a record cut to %d bytes should fail", cut)
		}
	}
}

func TestUniTextViews(t *testing.T) {
	u := UniText{Text: "Süßmayr", Lang: LangEnglish, Phoneme: "suːsmair"}
	kinds := []Kind{KindInt, KindUniText}
	var rec []byte
	for _, encode := range []func(Tuple) []byte{EncodeTuple} {
		rec = encode(Tuple{NewInt(7), NewUniText(u)})
		lang, text, ph, err := UniTextViews(seek(t, kinds, rec, 1))
		if err != nil {
			t.Fatal(err)
		}
		if lang != LangEnglish {
			t.Errorf("lang = %v, want %v", lang, LangEnglish)
		}
		if !bytes.Equal(text, []byte(u.Text)) {
			t.Errorf("text view = %q, want %q", text, u.Text)
		}
		if !bytes.Equal(ph, []byte(u.Phoneme)) {
			t.Errorf("phoneme view = %q, want %q", ph, u.Phoneme)
		}
	}

	// Empty phoneme: the view is empty, signalling "unmaterialized".
	rec2 := EncodeTuple(Tuple{NewUniText(UniText{Text: "x", Lang: LangTamil})})
	_, _, ph, err := UniTextViews(seek(t, []Kind{KindUniText}, rec2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(ph) != 0 {
		t.Errorf("unmaterialized phoneme view = %q, want empty", ph)
	}

	// Wrong kind is rejected.
	if _, _, _, err := UniTextViews(seek(t, kinds, rec, 0)); err == nil {
		t.Error("UniTextViews on an INT field should fail")
	}
}

func TestTextView(t *testing.T) {
	rec := EncodeTuple(Tuple{NewInt(7), NewText("nehru"), NewText("")})
	kinds := []Kind{KindInt, KindText, KindText}
	for i, want := range []string{"nehru", ""} {
		text, err := TextView(seek(t, kinds, rec, 1+i))
		if err != nil || string(text) != want {
			t.Errorf("text view of column %d = %q, %v, want %q", 1+i, text, err, want)
		}
	}
	if _, err := TextView(seek(t, kinds, rec, 0)); err == nil {
		t.Error("TextView on an INT field should fail")
	}
}

// Seek, SlotKeys and the views are the fused scan's per-row path; none may
// allocate.
func TestSkipPlanZeroAllocations(t *testing.T) {
	tup := lazyFixtureTuple()
	rec := EncodeTuple(tup)
	keys := AppendSlotKeys(nil, tup, 5, Unlabelled)
	p, _ := NewSkipPlan(kindsOf(tup), 5)
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, ok := SlotKeys(keys); !ok {
			t.Fatal("no slot keys")
		}
		field, err := p.Seek(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := UniTextViews(field); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SlotKeys+Seek+UniTextViews allocate %.1f/op, want 0", allocs)
	}
}

// lazyValue builds a value from one fuzz byte: its kind, and for text a length
// around the one-byte prefix's limit of 0x7F, or for a phoneme also around
// 0xFE.
func lazyValue(b byte) Value {
	lens := []int{0, 1, 5, 0x7E, 0x7F, 0x80, 0x81, 0xFE, 0xFF}
	str := func(n int) string { return strings.Repeat("ab", n)[:n] }
	switch m := int(b / 6); b % 6 {
	case 0:
		return NewInt(int64(m-21) << (m % 9 * 7))
	case 1:
		return NewText(str(lens[m%7]))
	case 2:
		return NewUniText(UniText{Text: str(lens[m%7]), Lang: LangID(m), Phoneme: str(lens[(m/7+3)%9])})
	case 3:
		return Null()
	case 4:
		return NewBool(m%2 == 0)
	default:
		return NewFloat(float64(m) / 3)
	}
}

// seekRef is SkipPlan.Seek without the inline TEXT step: the generic walk
// whose errors the fast path must keep.
func seekRef(before []Kind, rec []byte) ([]byte, error) {
	n, off := binary.Uvarint(rec)
	if off <= 0 {
		return nil, fmt.Errorf("types: seek field: bad column count")
	}
	idx := len(before)
	if uint64(idx) >= n {
		return nil, fmt.Errorf("types: seek field %d out of range (tuple width %d)", idx, n)
	}
	for _, want := range before {
		if off < len(rec) && Kind(rec[off]) == want {
			switch want {
			case KindInt:
				off++
				for off < len(rec) && rec[off] >= 0x80 {
					off++
				}
				off++
				continue
			case KindBool:
				off += 2
				continue
			case KindFloat:
				off += 9
				continue
			}
		}
		if off >= len(rec) {
			break
		}
		w, err := encodedValueSize(rec[off:])
		if err != nil {
			return nil, err
		}
		off += w
	}
	if off >= len(rec) {
		return nil, fmt.Errorf("types: seek field %d: short record", idx)
	}
	return rec[off:], nil
}

// viewRef is viewLenPrefixed without the inline one-byte length.
func viewRef(buf []byte) ([]byte, int, error) {
	l, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("bad length prefix")
	}
	if uint64(len(buf)-sz) < l {
		return nil, 0, fmt.Errorf("short buffer")
	}
	return buf[sz : sz+int(l)], sz + int(l), nil
}

// errText is an error's message, "" for none.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// uniTextViewsRef is UniTextViews read byte by byte: the kind byte and
// language, then the text and the phoneme, each without the inline one-byte
// length.
func uniTextViewsRef(field []byte) (lang LangID, text, ph []byte, err error) {
	if len(field) < 3 || Kind(field[0]) != KindUniText {
		return LangUnknown, nil, nil, fmt.Errorf("types: unitext views: not a UNITEXT field")
	}
	const hdr = 3
	var sz int
	if text, sz, err = viewRef(field[hdr:]); err != nil {
		return LangUnknown, nil, nil, fmt.Errorf("types: unitext views: text: %w", err)
	}
	if ph, _, err = viewRef(field[hdr+sz:]); err != nil {
		return LangUnknown, nil, nil, fmt.Errorf("types: unitext views: phoneme: %w", err)
	}
	return LangID(binary.BigEndian.Uint16(field[1:])), text, ph, nil
}

// Seek, UniTextViews and TextView read what DecodeTuple decodes, on records
// of every kind with lengths on both sides of the one-byte prefix, declared
// or not, cut at every byte: a column whose kind byte is in the record is
// found, a value wholly in it reads as its decoded bytes, one cut short
// fails, with the message of the walk without the inline steps. The fast
// walk (Offset) lands where Seek does wherever it answers, and answers
// wherever INT columns declared INT lead to a column in the record.
func FuzzSkipPlanViews(f *testing.F) {
	f.Add([]byte{0, 1, 2}, uint64(0xFFFF))
	f.Add([]byte{6 * 3, 6 * 20, 6*4 + 2, 6*5 + 2}, uint64(0xFFFF))
	f.Add([]byte{6 * 3, 6*4 + 2, 6 * 20}, uint64(0xFF0F))
	f.Add([]byte{6*3 + 1, 6*4 + 1, 6*5 + 2, 6*6 + 1}, uint64(0xFFFF))
	f.Add([]byte{3, 6*4 + 1, 6*26 + 2, 4, 5, 6 * 4}, uint64(0x1F1F))
	f.Add([]byte{6*28 + 2, 6*35 + 2, 2}, uint64(0x2222))
	f.Fuzz(func(t *testing.T, spec []byte, decl uint64) {
		if len(spec) == 0 || len(spec) > 8 {
			return
		}
		tup := make(Tuple, len(spec))
		kinds := make([]Kind, len(spec))
		for i, b := range spec {
			tup[i] = lazyValue(b)
			kinds[i] = tup[i].Kind()
			// Some columns are declared as another kind (a NULL, a stale schema).
			if m := decl >> (4 * i) & 15; m < 6 {
				kinds[i] = []Kind{KindInt, KindText, KindUniText, KindNull, KindBool, KindFloat}[m]
			}
		}
		rec := EncodeTuple(tup)
		// start[i], end[i]: where column i lies in rec, as DecodeTuple reads it.
		start, end := make([]int, len(tup)), make([]int, len(tup))
		_, off := binary.Uvarint(rec)
		for i := range tup {
			_, w, err := DecodeValue(rec[off:])
			if err != nil {
				t.Fatal(err)
			}
			start[i], end[i], off = off, off+w, off+w
		}
		if got, _, err := DecodeTuple(rec); err != nil {
			t.Fatal(err)
		} else {
			for i := range tup {
				if !equalIncludingPhoneme(got[i], tup[i]) {
					t.Fatalf("column %d decoded as %v, encoded %v", i, got[i], tup[i])
				}
			}
		}
		for cut := 0; cut <= len(rec); cut++ {
			r := rec[:cut:cut]
			for i, want := range tup {
				p, _ := NewSkipPlan(kinds, i)
				field, err := p.Seek(r)
				refField, refErr := seekRef(kinds[:i], r)
				if errText(err) != errText(refErr) || len(field) != len(refField) {
					t.Fatalf("cut %d col %d: Seek = %d bytes, %v; the generic walk %d bytes, %v", cut, i, len(field), err, len(refField), refErr)
				}
				if (err == nil) != (start[i] < cut) {
					t.Fatalf("cut %d col %d at [%d, %d): Seek err = %v", cut, i, start[i], end[i], err)
				}
				off, fast := p.Offset(r)
				if fast && (err != nil || off != cut-len(field)) {
					t.Fatalf("cut %d col %d: Offset = %d; Seek = %d bytes from the end, %v", cut, i, off, len(field), err)
				}
				ints := true
				for j := range i {
					ints = ints && kinds[j] == KindInt && tup[j].Kind() == KindInt
				}
				if ints && start[i] < cut && !fast {
					t.Fatalf("cut %d col %d at [%d, %d): Offset declined INT columns declared INT", cut, i, start[i], end[i])
				}
				if err != nil {
					continue
				}
				if len(field) != cut-start[i] {
					t.Fatalf("cut %d col %d: Seek landed %d bytes from the end, want %d", cut, i, len(field), cut-start[i])
				}
				whole := end[i] <= cut
				lang, text, ph, err := UniTextViews(field)
				refLang, refText, refPh, refErr := uniTextViewsRef(field)
				if errText(err) != errText(refErr) || lang != refLang || !bytes.Equal(text, refText) || !bytes.Equal(ph, refPh) {
					t.Fatalf("cut %d col %d: UniTextViews = %v %q %q %v; the generic read %v %q %q %v", cut, i, lang, text, ph, err, refLang, refText, refPh, refErr)
				}
				if want.Kind() == KindUniText {
					u := want.UniText()
					if ok := err == nil && lang == u.Lang && string(text) == u.Text && string(ph) == u.Phoneme; ok != whole {
						t.Fatalf("cut %d col %d at [%d, %d): UniTextViews = %v %q %q %v, decoded %v", cut, i, start[i], end[i], lang, text, ph, err, want)
					}
				}
				text, err = TextView(field)
				refText, refErr = nil, fmt.Errorf("types: text view: not a TEXT field")
				if len(field) >= 2 && Kind(field[0]) == KindText {
					if refText, _, refErr = viewRef(field[1:]); refErr != nil {
						refText, refErr = nil, fmt.Errorf("types: text view: %w", refErr)
					}
				}
				if errText(err) != errText(refErr) || !bytes.Equal(text, refText) {
					t.Fatalf("cut %d col %d: TextView = %q %v; the generic read %q %v", cut, i, text, err, refText, refErr)
				}
				if want.Kind() == KindText {
					if ok := err == nil && string(text) == want.Text(); ok != whole {
						t.Fatalf("cut %d col %d at [%d, %d): TextView = %q %v, decoded %v", cut, i, start[i], end[i], text, err, want)
					}
				}
			}
		}
	})
}
