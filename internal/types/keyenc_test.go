package types

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// TestKeyOrderPreservation is the invariant the B-tree and MDI depend on:
// bytes.Compare(KeyOf(a), KeyOf(b)) must have the same sign as Compare(a,b)
// for values of the same comparison class.
func TestKeyOrderPreservationInts(t *testing.T) {
	f := func(a, b int64) bool {
		sign := func(x int) int {
			switch {
			case x < 0:
				return -1
			case x > 0:
				return 1
			}
			return 0
		}
		// Int precision above 2^53 folds through float64; restrict to the
		// exact range (documented behavior — Compare also goes via Float).
		a %= 1 << 52
		b %= 1 << 52
		va, vb := NewInt(a), NewInt(b)
		return sign(bytes.Compare(KeyOf(va), KeyOf(vb))) == sign(Compare(va, vb))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyOrderPreservationFloats(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		sign := func(x int) int {
			switch {
			case x < 0:
				return -1
			case x > 0:
				return 1
			}
			return 0
		}
		va, vb := NewFloat(a), NewFloat(b)
		return sign(bytes.Compare(KeyOf(va), KeyOf(vb))) == sign(Compare(va, vb))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyOrderPreservationText(t *testing.T) {
	f := func(a, b string) bool {
		sign := func(x int) int {
			switch {
			case x < 0:
				return -1
			case x > 0:
				return 1
			}
			return 0
		}
		va, vb := NewText(a), NewText(b)
		return sign(bytes.Compare(KeyOf(va), KeyOf(vb))) == sign(Compare(va, vb))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyCrossKindNumeric(t *testing.T) {
	// INT and FLOAT share the numeric class: 2 < 2.5 < 3.
	keys := [][]byte{
		KeyOf(NewInt(2)),
		KeyOf(NewFloat(2.5)),
		KeyOf(NewInt(3)),
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Errorf("cross-kind numeric ordering broken at %d", i)
		}
	}
	if !bytes.Equal(KeyOf(NewInt(7)), KeyOf(NewFloat(7))) {
		t.Error("7 and 7.0 must encode identically")
	}
}

func TestKeyClassSeparation(t *testing.T) {
	// NULL < BOOL < numeric < text, mirroring Compare's class rules.
	ordered := [][]byte{
		KeyOf(Null()),
		KeyOf(NewBool(false)),
		KeyOf(NewBool(true)),
		KeyOf(NewFloat(math.Inf(-1))),
		KeyOf(NewInt(0)),
		KeyOf(NewFloat(math.Inf(1))),
		KeyOf(NewText("")),
		KeyOf(NewText("z")),
	}
	for i := 1; i < len(ordered); i++ {
		if bytes.Compare(ordered[i-1], ordered[i]) >= 0 {
			t.Errorf("class ordering broken at %d", i)
		}
	}
}

func TestKeyUniTextUsesTextComponent(t *testing.T) {
	a := KeyOf(NewUniText(Compose("same", LangTamil)))
	b := KeyOf(NewText("same"))
	if !bytes.Equal(a, b) {
		t.Error("UNITEXT keys must encode the Text component only (Compare orders by text)")
	}
}

func TestEncodeKeyAppends(t *testing.T) {
	prefix := []byte("prefix")
	out := EncodeKey(prefix, NewInt(1))
	if !bytes.HasPrefix(out, prefix) {
		t.Error("EncodeKey must append to dst")
	}
}

// NumberOfKey inverts EncodeKey on numbers, whatever their sign, and refuses
// every other key.
func TestNumberOfKey(t *testing.T) {
	f := func(x float64) bool {
		got, ok := NumberOfKey(KeyOf(NewFloat(x)))
		return ok && (got == x || math.IsNaN(x) && math.IsNaN(got))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, x := range []float64{0, -1, 255, -128.5, math.Inf(-1), math.Inf(1), math.SmallestNonzeroFloat64} {
		if got, ok := NumberOfKey(KeyOf(NewFloat(x))); !ok || got != x {
			t.Errorf("NumberOfKey(KeyOf(%g)) = %g, %v", x, got, ok)
		}
	}
	for _, v := range []Value{Null(), NewBool(true), NewText("12345678"), NewText("\x30\x00\x00\x00\x00\x00\x00\x00")} {
		if _, ok := NumberOfKey(KeyOf(v)); ok {
			t.Errorf("NumberOfKey(KeyOf(%v)) decoded a number", v)
		}
	}
}
