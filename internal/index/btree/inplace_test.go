package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/mural-db/mural/internal/invariant"
	"github.com/mural-db/mural/internal/storage"
)

// setCount overwrites the entry count in the header of page p.
func setCount(t *testing.T, tr *BTree, p storage.PageID, count int) {
	t.Helper()
	h, err := tr.pool.Pin(storage.PageKey{File: tr.file, Page: p})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Unpin()
	binary.LittleEndian.PutUint16(h.Data()[1:3], uint16(count))
	h.MarkDirty()
}

// wantCorrupt fails unless err reports a corrupt node.
func wantCorrupt(t *testing.T, op string, err error) {
	t.Helper()
	if !errors.Is(err, errCorrupt) {
		t.Errorf("%s on a corrupt node: err = %v, want %q", op, err, errCorrupt)
	}
}

// TestCorruptCountIsAnError checks that a node whose entry count overruns
// its payload fails search, insert and delete with a corrupt-node error,
// whether the count is absurd (every walk rejects it at the header) or
// only runs the walk off the end of the entries.
func TestCorruptCountIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int // entries loaded
		height int // the tree's height once loaded
		count  int // the root's count once corrupted
	}{
		{"absurd count on a lone leaf", 10, 1, 60000},
		{"absurd count on an inner root", 2000, 2, 60000},
		{"count past the entries of a full leaf", 500, 1, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTree(t)
			for i := 0; i < tc.n; i++ {
				if err := tr.Insert(key(i), rid(i)); err != nil {
					t.Fatal(err)
				}
			}
			if tr.Height() != tc.height {
				t.Fatalf("height %d, want %d", tr.Height(), tc.height)
			}
			setCount(t, tr, tr.root, tc.count)
			noop := func([]byte, storage.RID) bool { return true }
			_, err := tr.RangeCount(key(tc.n), nil, noop)
			wantCorrupt(t, "RangeCount", err)
			wantCorrupt(t, "Range", tr.Range(nil, nil, noop))
			_, err = tr.Search(key(tc.n + 1))
			wantCorrupt(t, "Search", err)
			wantCorrupt(t, "Insert", tr.Insert(key(tc.n+1), rid(tc.n+1)))
			wantCorrupt(t, "Delete", tr.Delete(key(1), rid(1)))
		})
	}
}

// TestSkewedSplitFits puts sixty short keys in a leaf, then long ones
// after them. The eighth long key overflows the leaf; splitting it by entry
// count would leave all eight long entries and 26 short ones in the right
// half, more than a page holds (the decoding tree failed that insert with
// "node overflow: 8339 bytes"). The split must cut by bytes instead and
// keep every entry.
func TestSkewedSplitFits(t *testing.T) {
	tr := newTree(t)
	var want []kv
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("a%02d", i)
		if err := tr.Insert([]byte(k), rid(100+i)); err != nil {
			t.Fatal(err)
		}
		want = append(want, kv{k, rid(100 + i)})
	}
	for i := 0; i < 8; i++ {
		k := append(bytes.Repeat([]byte{'b'}, 1000), byte('0'+i))
		if err := tr.Insert(k, rid(i)); err != nil {
			t.Fatalf("insert long key %d: %v", i, err)
		}
		want = append(want, kv{string(k), rid(i)})
	}
	if got := scanAll(t, tr); !slices.Equal(got, want) {
		t.Errorf("tree holds %d entries, want %d in order", len(got), len(want))
	}
	if tr.Height() != 2 {
		t.Errorf("height %d, want 2", tr.Height())
	}
}

// TestPointReadAndInsertAllocateNothing pins the in-place node walk: a
// point RangeCount over a two-level tree and an Insert that does not split
// (with the Delete that undoes it) make no allocation.
func TestPointReadAndInsertAllocateNothing(t *testing.T) {
	if invariant.Enabled {
		t.Skip("assertions box their arguments: allocations are pinned in the default build")
	}
	tr := newTree(t)
	const n = 30000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(2*i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d, want at least 2", tr.Height())
	}
	probe, odd := key(2*(n/3)), key(2*(n/3)+1)
	noop := func([]byte, storage.RID) bool { return true }
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := tr.RangeCount(probe, probe, noop); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("point RangeCount allocated %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tr.Insert(odd, rid(1)); err != nil {
			t.Fatal(err)
		}
		if err := tr.Delete(odd, rid(1)); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Insert and Delete allocated %.1f times, want 0", allocs)
	}
}
