package types

import (
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
)

// bumpFormat is the failure message of a test that pins on-disk format.
const bumpFormat = "the filter keys and the record layout are on-disk format: a change here must bump RecordFormat, so that data directories of the old format are refused"

// The key functions' outputs on fixed inputs. Summarize's are stored in data
// files (heap slots, AppendSlotKeys) and may not change without a new
// RecordFormat; CaseHash's are not stored since slots keep Ω's label, but
// every taxonomy's table of forms and Ω's filters are keyed by them, so they
// are pinned too.
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

// A heap's bytes for one row of a table (INT, UNITEXT): the record, the
// column count and each value as EncodeTuple writes it, and the slot keys of
// the UNITEXT value — signature, Ω label, rune count, then language. A value
// without keys in the slot (NULL, or a language past seven bits) is the
// marker alone. The three label sentinels are pinned with them.
func TestRecordLayoutGolden(t *testing.T) {
	tup := Tuple{NewInt(7), NewUniText(UniText{Text: "Nehru", Lang: LangHindi, Phoneme: "nehɾu"})}
	const rec = "02" + "020e" + "05" + "0002" + "054e65687275" + "066e6568c9be75"
	if got := hex.EncodeToString(EncodeTuple(tup)); got != rec {
		t.Errorf("record = %s, pinned %s; %s", got, rec, bumpFormat)
	}
	col, width := KeyedColumn([]Kind{KindInt, KindUniText, KindUniText})
	if col != 1 || width != SlotKeyBytes || SlotKeyBytes != 14 {
		t.Errorf("KeyedColumn = %d, %d of %d bytes, pinned 1, 14; %s", col, width, SlotKeyBytes, bumpFormat)
	}
	if NoSynsets != 0xFFFFFFFD || ManySynsets != 0xFFFFFFFE || Unlabelled != 0xFFFFFFFF {
		t.Errorf("label sentinels %#x %#x %#x, pinned 0xfffffffd, 0xfffffffe, 0xffffffff; %s", NoSynsets, ManySynsets, Unlabelled, bumpFormat)
	}
	const none = "0000000000000000" + "00000000" + "00" + "7f"
	for _, c := range []struct {
		v     Value
		label uint32
		keys  string
	}{
		{tup[1], 123456, "00000a0400000040" + "40e20100" + "05" + "02"},
		{tup[1], Unlabelled, "00000a0400000040" + "ffffffff" + "05" + "02"},
		{NewUniText(UniText{Text: "नेहरू", Lang: LangHindi, Phoneme: strings.Repeat("kɾiʃ", 75)}), ManySynsets, "0001080200000002" + "feffffff" + "ff" + "02"},
		{Null(), 7, none},
		{NewUniText(UniText{Text: "x", Lang: 0x7F, Phoneme: "x"}), 7, none},
	} {
		if got := hex.EncodeToString(AppendSlotKeys(nil, Tuple{NewInt(7), c.v}, 1, c.label)); got != c.keys {
			t.Errorf("slot keys of %v labelled %#x = %s, pinned %s; %s", c.v, c.label, got, c.keys, bumpFormat)
		}
	}
	if got := AppendSlotKeys(nil, tup, -1, 7); len(got) != 0 {
		t.Errorf("slot keys of a table without a UNITEXT column = %x, want none", got)
	}
	if col, width := KeyedColumn([]Kind{KindInt, KindText}); col != -1 || width != 0 {
		t.Errorf("KeyedColumn without UNITEXT = %d, %d, want -1, 0", col, width)
	}
}

// SlotKeys reads back what AppendSlotKeys wrote: the phoneme's summary, a
// rune count of 255 or more as RunesOverflow, and the label, and nothing for
// a value without keys or a slot without key bytes.
func TestSlotKeysRoundTrip(t *testing.T) {
	for _, u := range []UniText{
		{Text: "Nehru", Lang: LangHindi, Phoneme: "nehɾu"},
		{Text: "", Lang: LangUnknown},
		{Text: "சரித்திரம்", Lang: LangTamil, Phoneme: "t͡ʃaɾittiɾam"},
		{Text: "HISTORY", Lang: 0x7E, Phoneme: strings.Repeat("ə", 254)},
		{Text: "x", Lang: LangFrench, Phoneme: strings.Repeat("ə", 255)},
	} {
		label := uint32(len(u.Phoneme)) * 977
		lang, keys, ok := SlotKeys(AppendSlotKeys(nil, Tuple{NewUniText(u)}, 0, label))
		want := Keys{Phoneme: Summarize([]byte(u.Phoneme)), Label: label}
		want.Phoneme.Runes = min(want.Phoneme.Runes, RunesOverflow)
		if !ok || lang != u.Lang || keys != want {
			t.Errorf("SlotKeys of %+v = %v %+v %v, want %v %+v", u, lang, keys, ok, u.Lang, want)
		}
	}
	for _, b := range [][]byte{nil, AppendSlotKeys(nil, Tuple{Null()}, 0, 1), AppendSlotKeys(nil, Tuple{NewUniText(UniText{Text: "x", Lang: 300})}, 0, 1)} {
		if _, _, ok := SlotKeys(b); ok {
			t.Errorf("SlotKeys(%x) ok", b)
		}
	}
}

// The slot-key accessors read back what AppendSlotKeys wrote, field by
// field, as SlotKeys does: for random texts, phonemes and labels (the three
// sentinels among them) in every language that fits seven bits, at rune
// counts 0, 1, 254, 255 and past it, and for values without keys (NULL, a
// language past seven bits).
func TestSlotKeyAccessorsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func(n int, ascii bool) string {
		var b strings.Builder
		for range n {
			if ascii {
				b.WriteByte(byte('a' + rng.Intn(26)))
			} else {
				b.WriteRune(rune(0x0B85 + rng.Intn(40)))
			}
		}
		return b.String()
	}
	for lang := LangID(0); lang < noSlotKeys; lang++ {
		for _, runes := range []int{0, 1, 2 + rng.Intn(250), 254, 255, 256 + rng.Intn(100)} {
			for _, ascii := range []bool{true, false} {
				u := UniText{Text: word(1+rng.Intn(20), ascii), Lang: lang, Phoneme: word(runes, rng.Intn(2) == 0)}
				label := []uint32{rng.Uint32(), 0, NoSynsets, ManySynsets, Unlabelled}[rng.Intn(5)]
				b := AppendSlotKeys(nil, Tuple{NewInt(1), NewUniText(u)}, 1, label)
				want := Keys{Phoneme: Summarize([]byte(u.Phoneme)), Label: label}
				want.Phoneme.Runes = min(want.Phoneme.Runes, RunesOverflow)
				olang, olabel := SlotOmegaKeys(b)
				if !SlotHasKeys(b) || SlotSummarized(b) != (runes >= 1 && runes <= 254) ||
					SlotRunes(b) != want.Phoneme.Runes || SlotSig(b) != want.Phoneme.Sig || SlotSummary(b) != want.Phoneme ||
					SlotLabel(b) != label || SlotLang(b) != lang || olang != lang || olabel != label ||
					Verifies(label) != (label == ManySynsets || label == Unlabelled) {
					t.Fatalf("accessors of %+v labelled %#x (%x) read %v %v %v %d %#x %#x %v, want keys %+v in %v",
						u, label, b, SlotHasKeys(b), SlotSummarized(b), SlotSummary(b), SlotRunes(b), SlotSig(b), SlotLabel(b), SlotLang(b), want, lang)
				}
				if l, k, ok := SlotKeys(b); !ok || l != lang || k != want {
					t.Fatalf("SlotKeys of %+v = %v %+v %v, want %v %+v", u, l, k, ok, lang, want)
				}
			}
		}
	}
	for _, v := range []Value{Null(), NewUniText(UniText{Text: "x", Lang: noSlotKeys, Phoneme: "x"}), NewUniText(UniText{Text: "x", Lang: 300, Phoneme: "x"})} {
		b := AppendSlotKeys(nil, Tuple{v}, 0, 1)
		if SlotHasKeys(b) || SlotSummarized(b) {
			t.Errorf("slot keys of %v (%x) have keys", v, b)
		}
		if _, _, ok := SlotKeys(b); ok {
			t.Errorf("SlotKeys of %v (%x) ok", v, b)
		}
	}
}
