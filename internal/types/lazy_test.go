package types

import (
	"bytes"
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
// every column and kind — whether the schema declares the kinds the record
// holds (the fast steps) or something else entirely (NULLs in typed columns,
// a stale declaration: the generic steps).
func TestSkipPlanMatchesDecode(t *testing.T) {
	tup := lazyFixtureTuple()
	rec := EncodeTuple(tup)
	wrong := make([]Kind, len(tup))
	for i := range wrong {
		wrong[i] = KindInt
	}
	for name, kinds := range map[string][]Kind{"declared": kindsOf(tup), "mismatched": wrong} {
		for i, want := range tup {
			v, _, err := DecodeValue(seek(t, kinds, rec, i))
			if err != nil {
				t.Fatalf("%s: DecodeValue(field %d): %v", name, i, err)
			}
			if !Equal(v, want) && !(v.IsNull() && want.IsNull()) {
				t.Errorf("%s: field %d: decoded %v, want %v", name, i, v, want)
			}
		}
	}
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
	rec := EncodeTuple(Tuple{NewInt(7), NewUniText(u)})
	kinds := []Kind{KindInt, KindUniText}
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

	// Empty phoneme: the view is empty, signalling "unmaterialized".
	rec2 := EncodeTuple(Tuple{NewUniText(UniText{Text: "x", Lang: LangTamil})})
	_, _, ph, err = UniTextViews(seek(t, []Kind{KindUniText}, rec2, 0))
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

// Seek and UniTextViews are the fused scan's per-row path; neither may
// allocate.
func TestSkipPlanZeroAllocations(t *testing.T) {
	tup := lazyFixtureTuple()
	rec := EncodeTuple(tup)
	p, _ := NewSkipPlan(kindsOf(tup), 5)
	allocs := testing.AllocsPerRun(200, func() {
		field, err := p.Seek(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := UniTextViews(field); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Seek+UniTextViews allocate %.1f/op, want 0", allocs)
	}
}
