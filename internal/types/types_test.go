package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindBool: "BOOL", KindInt: "INT",
		KindFloat: "FLOAT", KindText: "TEXT", KindUniText: "UNITEXT",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindFromName(t *testing.T) {
	cases := []struct {
		name string
		want Kind
		ok   bool
	}{
		{"INT", KindInt, true},
		{"integer", KindInt, true},
		{"BIGINT", KindInt, true},
		{"text", KindText, true},
		{"VARCHAR", KindText, true},
		{"UNITEXT", KindUniText, true},
		{"unitext", KindUniText, true},
		{"BOOLEAN", KindBool, true},
		{"double", KindFloat, true},
		{"blob", KindNull, false},
	}
	for _, c := range cases {
		got, ok := KindFromName(c.name)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("KindFromName(%q) = %v,%v want %v,%v", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestLangRoundTrip(t *testing.T) {
	for _, l := range AllLangs() {
		got, ok := LangFromName(l.String())
		if !ok || got != l {
			t.Errorf("LangFromName(%q) = %v,%v want %v", l.String(), got, ok, l)
		}
	}
	if _, ok := LangFromName("klingon"); ok {
		t.Error("LangFromName accepted unknown language")
	}
	if got, ok := LangFromName("TAMIL"); !ok || got != LangTamil {
		t.Errorf("LangFromName is not case-insensitive: got %v,%v", got, ok)
	}
}

func TestComposeDecompose(t *testing.T) {
	u := Compose("Nehru", LangEnglish)
	text, lang := u.Decompose()
	if text != "Nehru" || lang != LangEnglish {
		t.Errorf("Decompose(Compose(...)) = %q,%v", text, lang)
	}
}

func TestUniTextEqual(t *testing.T) {
	a := Compose("histoire", LangFrench)
	b := Compose("histoire", LangFrench)
	b.Phoneme = "istwar" // derived state must not affect ≐
	if !a.Equal(b) {
		t.Error("UniText.Equal ignores equal components")
	}
	c := Compose("histoire", LangEnglish)
	if a.Equal(c) {
		t.Error("UniText.Equal must compare the language component")
	}
}

func TestValueAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("zero Value must be NULL")
	}
	if NewBool(true).Bool() != true {
		t.Error("Bool round trip")
	}
	if NewInt(-42).Int() != -42 {
		t.Error("Int round trip")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float round trip")
	}
	if NewInt(7).Float() != 7.0 {
		t.Error("Float must widen INT")
	}
	if NewText("x").Text() != "x" {
		t.Error("Text round trip")
	}
	u := UniText{Text: "अशोक", Lang: LangHindi, Phoneme: "aʃok"}
	v := NewUniText(u)
	if v.UniText() != u {
		t.Error("UniText round trip")
	}
	if v.Text() != "अशोक" {
		t.Error("Text() on UNITEXT must return the Text component")
	}
	v2 := NewUniText(Compose("x", LangTamil)).WithPhoneme("ks")
	if v2.UniText().Phoneme != "ks" {
		t.Error("WithPhoneme did not attach phoneme")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Bool on int", func() { NewInt(1).Bool() })
	mustPanic("Int on text", func() { NewText("a").Int() })
	mustPanic("UniText on text", func() { NewText("a").UniText() })
	mustPanic("WithPhoneme on text", func() { NewText("a").WithPhoneme("x") })
	mustPanic("Compare bool/int", func() { Compare(NewBool(true), NewInt(1)) })
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewText("a"), NewText("b"), -1},
		{NewText("b"), NewText("b"), 0},
		{Null(), NewInt(1), -1},
		{NewInt(1), Null(), 1},
		{Null(), Null(), 0},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
		{NewUniText(Compose("a", LangHindi)), NewText("a"), 0},
		{NewUniText(Compose("a", LangEnglish)), NewUniText(Compose("a", LangHindi)), 0},
		{NewUniText(Compose("a", LangEnglish)), NewUniText(Compose("b", LangEnglish)), -1},
	}
	for i, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("case %d: Compare(%v, %v) = %d, want %d", i, c.a, c.b, got, c.want)
		}
	}
}

func TestComparable(t *testing.T) {
	if !Comparable(KindInt, KindFloat) {
		t.Error("int/float must be comparable")
	}
	if !Comparable(KindText, KindUniText) {
		t.Error("text/unitext must be comparable")
	}
	if !Comparable(KindNull, KindBool) {
		t.Error("null comparable with anything")
	}
	if Comparable(KindBool, KindInt) {
		t.Error("bool/int must not be comparable")
	}
	if Comparable(KindText, KindFloat) {
		t.Error("text/float must not be comparable")
	}
}

func TestEqual(t *testing.T) {
	if !Equal(NewInt(3), NewFloat(3)) {
		t.Error("numeric cross-kind equality")
	}
	if Equal(NewInt(3), NewText("3")) {
		t.Error("int/text must not be equal")
	}
	a := NewUniText(Compose("x", LangTamil))
	b := NewUniText(Compose("x", LangHindi))
	if Equal(a, b) {
		t.Error("≐ must compare language components")
	}
	if !Equal(a, NewUniText(Compose("x", LangTamil)).WithPhoneme("ks")) {
		t.Error("≐ must ignore materialized phonemes")
	}
	if !Equal(Null(), Null()) {
		t.Error("NULL equals NULL under Equal (codec identity, not SQL ternary)")
	}
}

func TestEncodeDecodeValueRoundTrip(t *testing.T) {
	vals := []Value{
		Null(),
		NewBool(true),
		NewBool(false),
		NewInt(0),
		NewInt(-1),
		NewInt(math.MaxInt64),
		NewInt(math.MinInt64),
		NewFloat(0),
		NewFloat(-2.75),
		NewFloat(math.Inf(1)),
		NewText(""),
		NewText("hello, world"),
		NewText("multi\x00byte\xffsafe"),
		NewUniText(UniText{Text: "சரித்திரம்", Lang: LangTamil, Phoneme: "t͡ʃaɾittiɾam"}),
		NewUniText(UniText{Text: "", Lang: LangUnknown}),
	}
	for i, v := range vals {
		buf := AppendValue(nil, v)
		got, n, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if n != len(buf) {
			t.Errorf("case %d: consumed %d of %d bytes", i, n, len(buf))
		}
		if got.Kind() != v.Kind() || !equalIncludingPhoneme(got, v) {
			t.Errorf("case %d: round trip %v -> %v", i, v, got)
		}
	}
}

func equalIncludingPhoneme(a, b Value) bool {
	if a.Kind() == KindUniText && b.Kind() == KindUniText {
		return a.UniText() == b.UniText()
	}
	if a.Kind() == KindFloat && b.Kind() == KindFloat {
		af, bf := a.Float(), b.Float()
		return af == bf || (math.IsNaN(af) && math.IsNaN(bf))
	}
	return Equal(a, b)
}

// DecodeTuple reads what EncodeTuple writes.
func TestEncodeDecodeTupleRoundTrip(t *testing.T) {
	tup := Tuple{
		NewInt(42),
		NewText("Nehru"),
		NewUniText(UniText{Text: "नेहरू", Lang: LangHindi, Phoneme: "nehɾu"}),
		Null(),
		NewFloat(3.14),
		NewBool(true),
		NewUniText(UniText{Text: "", Lang: LangUnknown}),
	}
	for _, buf := range [][]byte{EncodeTuple(tup)} {
		got, n, err := DecodeTuple(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(buf) {
			t.Errorf("consumed %d of %d", n, len(buf))
		}
		if len(got) != len(tup) {
			t.Fatalf("got %d cols, want %d", len(got), len(tup))
		}
		for i := range tup {
			if !equalIncludingPhoneme(got[i], tup[i]) {
				t.Errorf("col %d: %v != %v", i, got[i], tup[i])
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("empty buffer must error")
	}
	if _, _, err := DecodeValue([]byte{byte(KindBool)}); err == nil {
		t.Error("truncated bool must error")
	}
	if _, _, err := DecodeValue([]byte{byte(KindFloat), 1, 2}); err == nil {
		t.Error("truncated float must error")
	}
	if _, _, err := DecodeValue([]byte{byte(KindText), 10, 'a'}); err == nil {
		t.Error("short text must error")
	}
	if _, _, err := DecodeValue([]byte{0xEE}); err == nil {
		t.Error("unknown kind must error")
	}
	if _, _, err := DecodeTuple(nil); err == nil {
		t.Error("empty tuple buffer must error")
	}
	if _, _, err := DecodeTuple([]byte{2, byte(KindNull)}); err == nil {
		t.Error("tuple with missing column must error")
	}
}

func TestTupleCodecProperty(t *testing.T) {
	f := func(i int64, s string, f64 float64, b bool) bool {
		tup := Tuple{NewInt(i), NewText(s), NewFloat(f64), NewBool(b)}
		buf := EncodeTuple(tup)
		got, n, err := DecodeTuple(buf)
		if err != nil || n != len(buf) || len(got) != len(tup) {
			return false
		}
		for j := range tup {
			if !equalIncludingPhoneme(got[j], tup[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareIsOrdering(t *testing.T) {
	// Antisymmetry and transitivity over a fixed mixed set of comparable
	// textual values.
	vals := []Value{
		Null(),
		NewText("a"), NewText("b"),
		NewUniText(Compose("a", LangEnglish)),
		NewUniText(Compose("a", LangTamil)),
		NewUniText(Compose("c", LangHindi)),
	}
	for _, a := range vals {
		for _, b := range vals {
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("antisymmetry violated for %v, %v", a, b)
			}
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Errorf("transitivity violated for %v, %v, %v", a, b, c)
				}
			}
		}
	}
}

func TestTupleClone(t *testing.T) {
	tup := Tuple{NewInt(1), NewText("x")}
	c := tup.Clone()
	c[0] = NewInt(2)
	if tup[0].Int() != 1 {
		t.Error("Clone must not alias the original")
	}
}

func TestTupleString(t *testing.T) {
	tup := Tuple{NewInt(1), NewText("x"), Null()}
	if got := tup.String(); got != "(1, x, NULL)" {
		t.Errorf("Tuple.String() = %q", got)
	}
}
