//go:build muralinvariants

package exec

import (
	"strings"
	"testing"
)

func TestCursorNextAfterClosePanics(t *testing.T) {
	c := NewSliceCursor(nil, nil)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "Next on a closed cursor") {
			t.Fatalf("expected no-Next-after-Close invariant panic, got %v", r)
		}
	}()
	_, _, _ = c.Next()
}
