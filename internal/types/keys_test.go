package types

import (
	"encoding/hex"
	"strings"
	"testing"
)

// bumpFormat is the failure message of a test that pins on-disk format.
const bumpFormat = "the filter keys and the record layout are on-disk format: a change here must bump RecordFormat, so that data directories of the old format are refused"

// The key functions' outputs on fixed inputs. Every value here is stored in
// data files (EncodeRecord); none may change without a new RecordFormat.
func TestKeysGolden(t *testing.T) {
	for _, c := range []struct {
		in    string
		runes int
		sig   uint64
		hash  uint32
		ascii bool
	}{
		{"", 0, 0x0000000000000000, 0x00000000, true},
		{"nehru", 5, 0x40000000240a0000, 0x91f9e0bc, true},
		{"NEHRU", 5, 0x00000a0480002000, 0x91f9e0bc, true},
		{"नेहरू", 5, 0x0020848000000800, 0xcac4c6d3, false},
		{"சரித்திரம்", 10, 0x0400800808000420, 0xcb6279cf, false},
		{"a\xffb\xe2\x82", 5, 0x1000009000000000, 0x0b4544d9, false},
		{strings.Repeat("kɾiʃ", 75), 300, 0x0200000002080100, 0x8badd4dd, false},
	} {
		if s := Summarize([]byte(c.in)); s != (Summary{Runes: c.runes, Sig: c.sig}) {
			t.Errorf("Summarize(%q) = {%d %#016x}, pinned {%d %#016x}; %s", c.in, s.Runes, s.Sig, c.runes, c.sig, bumpFormat)
		}
		if h, ascii := CaseHash([]byte(c.in)); h != c.hash || ascii != c.ascii {
			t.Errorf("CaseHash(%q) = %#08x, %v, pinned %#08x, %v; %s", c.in, h, ascii, c.hash, c.ascii, bumpFormat)
		}
	}
}

// The storage encoder's bytes for one row: the column count, an INT, and a
// UNITEXT value with its keys between its language and its text.
func TestRecordLayoutGolden(t *testing.T) {
	tup := Tuple{NewInt(7), NewUniText(UniText{Text: "Nehru", Lang: LangHindi, Phoneme: "nehɾu"})}
	const pinned = "02" + "020e" + "85" + "0002" + "05" + "00000a0400000040" + "bce0f991" + "01" + "054e65687275" + "066e6568c9be75"
	if got := hex.EncodeToString(EncodeRecord(tup)); got != pinned {
		t.Errorf("EncodeRecord = %s, pinned %s; %s", got, pinned, bumpFormat)
	}
}

// A UNITEXT value's keys read back from EncodeRecord — at fixed offsets,
// behind any column — equal the keys recomputed from the value DecodeTuple
// returns, and the record decodes to what was encoded: a rune count of 255 or
// more, which its byte cannot hold, reads back exact too.
func FuzzStoredKeys(f *testing.F) {
	f.Add("Nehru", "nehɾu", uint16(LangHindi), int64(7), false)
	f.Add("", "", uint16(0), int64(-1), true)
	f.Add("சரித்திரம்", "t͡ʃaɾittiɾam", uint16(LangTamil), int64(1)<<40, false)
	f.Add("HISTORY", "a\xffb\xe2\x82", uint16(LangEnglish), int64(0), true)
	f.Add(strings.Repeat("x", 200), strings.Repeat("ə", 254), uint16(LangFrench), int64(3), false)
	f.Add("x", strings.Repeat("ə", 255), uint16(LangFrench), int64(3), false)
	f.Add("x", strings.Repeat("kɾiʃ", 75), uint16(LangFrench), int64(3), true)
	f.Fuzz(func(t *testing.T, text, ph string, lang uint16, n int64, textFirst bool) {
		u := NewUniText(UniText{Text: text, Lang: LangID(lang), Phoneme: ph})
		tup, kinds, col := Tuple{NewInt(n), u}, []Kind{KindInt, KindUniText}, 1
		if textFirst {
			tup, kinds, col = Tuple{NewText(text), u, NewInt(n)}, []Kind{KindText, KindUniText, KindInt}, 1
		}
		rec := EncodeRecord(tup)
		got, w, err := DecodeTuple(rec)
		if err != nil || w != len(rec) || len(got) != len(tup) {
			t.Fatalf("DecodeTuple(EncodeRecord(%v)) = %v, %d of %d bytes, %v", tup, got, w, len(rec), err)
		}
		for i := range tup {
			if !equalIncludingPhoneme(got[i], tup[i]) {
				t.Fatalf("column %d decoded as %v, encoded %v", i, got[i], tup[i])
			}
		}
		p, _ := NewSkipPlan(kinds, col)
		field, err := p.Seek(rec)
		if err != nil {
			t.Fatal(err)
		}
		var s StoredUniText
		if ok, err := ReadStored(field, &s); !ok || err != nil {
			t.Fatalf("ReadStored = %v, %v", ok, err)
		}
		d := got[col].UniText()
		if want := KeysOf([]byte(d.Text), []byte(d.Phoneme)); s.Lang != d.Lang || s.Keys != want {
			t.Fatalf("stored keys %v %+v, recomputed from %v: %v %+v", s.Lang, s.Keys, d, d.Lang, want)
		}
		vt, vp, err := s.Views()
		if err != nil || string(vt) != text || string(vp) != ph {
			t.Fatalf("Views = %q %q %v, want %q %q", vt, vp, err, text, ph)
		}
		// The wire form carries no keys, and decodes alike.
		if ok, _ := ReadStored(AppendValue(nil, u), &s); ok {
			t.Fatal("ReadStored read keys off the wire encoding")
		}
	})
}
