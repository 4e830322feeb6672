package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/mural-db/mural/internal/storage"
)

func newTree(t testing.TB) *BTree {
	t.Helper()
	pool := storage.NewPool(256)
	pool.AttachDisk(1, storage.NewMemDisk())
	tr, err := Create(pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func rid(i int) storage.RID {
	return storage.RID{Page: storage.PageID(i / 100), Slot: uint16(i % 100)}
}

// kv is one entry as a scan hands it out, its key copied.
type kv struct {
	key string
	r   storage.RID
}

// scanAll returns the tree's entries in scan order.
func scanAll(t testing.TB, tr *BTree) []kv {
	t.Helper()
	var out []kv
	if err := tr.Range(nil, nil, func(k []byte, r storage.RID) bool {
		out = append(out, kv{string(k), r})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestInsertSearch(t *testing.T) {
	tr := newTree(t)
	if err := tr.Insert([]byte("hello"), rid(1)); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Search([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != rid(1) {
		t.Errorf("Search = %v", got)
	}
	if got, _ := tr.Search([]byte("absent")); len(got) != 0 {
		t.Errorf("Search(absent) = %v", got)
	}
	if all := scanAll(t, tr); len(all) != 1 || all[0] != (kv{"hello", rid(1)}) {
		t.Errorf("tree holds %v", all)
	}
}

func TestDuplicatePairRejected(t *testing.T) {
	tr := newTree(t)
	if err := tr.Insert([]byte("k"), rid(5)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("k"), rid(5)); err == nil {
		t.Error("exact duplicate must be rejected")
	}
	if err := tr.Insert([]byte("k"), rid(6)); err != nil {
		t.Errorf("same key different rid must be accepted: %v", err)
	}
}

func TestDuplicateKeysAcrossSplits(t *testing.T) {
	tr := newTree(t)
	// Enough duplicates of one key to force multiple leaf splits.
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Insert([]byte("same-key-for-everyone"), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tr.Search([]byte("same-key-for-everyone"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Errorf("found %d of %d duplicates", len(got), n)
	}
	if tr.Height() < 2 {
		t.Error("expected the tree to have split")
	}
}

func TestManyKeysOrderedScan(t *testing.T) {
	tr := newTree(t)
	const n = 5000
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, i := range perm {
		key := []byte(fmt.Sprintf("key-%06d", i))
		if err := tr.Insert(key, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	err := tr.Range(nil, nil, func(k []byte, _ storage.RID) bool {
		keys = append(keys, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("full scan returned %d keys, want %d", len(keys), n)
	}
	if !sort.StringsAreSorted(keys) {
		t.Error("full scan not in key order")
	}
}

func TestRangeBounds(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 100; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("%03d", i)), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	err := tr.Range([]byte("010"), []byte("019"), func(k []byte, _ storage.RID) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "010" || got[9] != "019" {
		t.Errorf("range [010,019] = %v", got)
	}
	// Open lower bound.
	got = nil
	tr.Range(nil, []byte("004"), func(k []byte, _ storage.RID) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 5 {
		t.Errorf("range (,004] = %v", got)
	}
	// Open upper bound.
	got = nil
	tr.Range([]byte("095"), nil, func(k []byte, _ storage.RID) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 5 {
		t.Errorf("range [095,) = %v", got)
	}
	// Early stop.
	count := 0
	tr.Range(nil, nil, func(_ []byte, _ storage.RID) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 500; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("k%04d", i)), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i += 2 {
		if err := tr.Delete([]byte(fmt.Sprintf("k%04d", i)), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	all := scanAll(t, tr)
	if len(all) != 250 {
		t.Fatalf("%d entries after deletes, want 250", len(all))
	}
	for j, e := range all {
		if i := 2*j + 1; e != (kv{fmt.Sprintf("k%04d", i), rid(i)}) {
			t.Fatalf("entry %d is %v after deletes", j, e)
		}
	}
	for i := 0; i < 500; i++ {
		got, _ := tr.Search([]byte(fmt.Sprintf("k%04d", i)))
		if i%2 == 0 && len(got) != 0 {
			t.Errorf("deleted key k%04d still present", i)
		}
		if i%2 == 1 && len(got) != 1 {
			t.Errorf("kept key k%04d missing", i)
		}
	}
	if err := tr.Delete([]byte("nope"), rid(0)); err == nil {
		t.Error("deleting a missing entry must fail")
	}
}

func TestPersistence(t *testing.T) {
	pool := storage.NewPool(64)
	disk := storage.NewMemDisk()
	pool.AttachDisk(9, disk)
	tr, err := Create(pool, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("p%05d", i)), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Reopen through a fresh pool over the same disk.
	pool2 := storage.NewPool(64)
	pool2.AttachDisk(9, disk)
	tr2, err := Open(pool2, 9)
	if err != nil {
		t.Fatal(err)
	}
	all := scanAll(t, tr2)
	if len(all) != 1000 {
		t.Errorf("reopened tree holds %d entries, want 1000", len(all))
	}
	for i, e := range all {
		if e != (kv{fmt.Sprintf("p%05d", i), rid(i)}) {
			t.Fatalf("reopened entry %d is %v", i, e)
		}
	}
	got, err := tr2.Search([]byte("p00777"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != rid(777) {
		t.Errorf("reopened Search = %v", got)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	pool := storage.NewPool(8)
	disk := storage.NewMemDisk()
	pool.AttachDisk(2, disk)
	if _, err := pool.NewPage(2); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(pool, 2); err == nil {
		t.Error("Open must reject a file without the btree magic")
	}
	if _, err := Create(pool, 2); err == nil {
		t.Error("Create must reject a non-empty file")
	}
}

func TestKeyTooLong(t *testing.T) {
	tr := newTree(t)
	if err := tr.Insert(make([]byte, maxKeyLen+1), rid(0)); err == nil {
		t.Error("oversized key must be rejected")
	}
}

// TestRandomizedAgainstModel drives random inserts and deletes against a
// sorted-slice model, then verifies Search and Range agree exactly.
func TestRandomizedAgainstModel(t *testing.T) {
	tr := newTree(t)
	rng := rand.New(rand.NewSource(99))
	type pair struct {
		key string
		r   storage.RID
	}
	model := make(map[pair]bool)
	var pairs []pair
	for step := 0; step < 8000; step++ {
		if len(pairs) == 0 || rng.Intn(4) != 0 {
			p := pair{
				key: fmt.Sprintf("k%03d", rng.Intn(200)), // few keys: heavy duplication
				r:   rid(rng.Intn(10000)),
			}
			if model[p] {
				if err := tr.Insert([]byte(p.key), p.r); err == nil {
					t.Fatalf("step %d: duplicate accepted", step)
				}
				continue
			}
			if err := tr.Insert([]byte(p.key), p.r); err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			model[p] = true
			pairs = append(pairs, p)
		} else {
			i := rng.Intn(len(pairs))
			p := pairs[i]
			if err := tr.Delete([]byte(p.key), p.r); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			delete(model, p)
			pairs[i] = pairs[len(pairs)-1]
			pairs = pairs[:len(pairs)-1]
		}
	}
	// Compare a full scan with the model.
	got := make(map[pair]bool)
	err := tr.Range(nil, nil, func(k []byte, r storage.RID) bool {
		p := pair{key: string(k), r: r}
		if got[p] {
			t.Errorf("duplicate in scan: %v", p)
		}
		got[p] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(model) {
		t.Fatalf("scan %d entries, model %d", len(got), len(model))
	}
	for p := range model {
		if !got[p] {
			t.Errorf("missing %v", p)
		}
	}
}

// runModel reads ops as a sequence of tree operations, runs them on a tree
// over a 16-frame pool and checks every answer against a sorted slice:
//   - an insert of a key of 0 to maxKeyLen bytes (few distinct keys, so many
//     equal under distinct RIDs), which must fail exactly when the pair is
//     already held;
//   - a delete of a held pair or of a random one, which must fail exactly
//     when it is not held;
//   - a range with an open or closed lower and upper bound and an optional
//     early stop;
//   - a reopen of the tree from its file through a fresh pool.
//
// A full scan is checked at the end. runModel returns the greatest height
// the tree reached.
func runModel(t *testing.T, ops []byte) int {
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	keyOf := func() []byte {
		lens := [...]int{0, 1, 2, 3, 16, 200, 700, maxKeyLen}
		b := next()
		k := bytes.Repeat([]byte{'a' + b>>3&3}, lens[b&7])
		if len(k) > 0 {
			k[len(k)-1] = 'a' + b>>5
		}
		return k
	}
	ridOf := func() storage.RID {
		return storage.RID{Page: storage.PageID(next()), Slot: uint16(next() & 3)}
	}
	cmp := func(a, b kv) int { return cmpEntry([]byte(a.key), a.r, []byte(b.key), b.r) }

	disk := storage.NewMemDisk()
	pool := storage.NewPool(16)
	pool.AttachDisk(1, disk)
	tr, err := Create(pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	var model []kv
	height := 1
	for step := 0; len(ops) > 0; step++ {
		switch op := next(); op % 8 {
		case 0, 1, 2, 3:
			e := kv{string(keyOf()), ridOf()}
			i, held := slices.BinarySearchFunc(model, e, cmp)
			err := tr.Insert([]byte(e.key), e.r)
			if held != (err != nil) {
				t.Fatalf("step %d: insert of %d-byte key at %v (held %v): %v", step, len(e.key), e.r, held, err)
			}
			if !held {
				model = slices.Insert(model, i, e)
			}
		case 4, 5:
			var e kv
			if op&0x80 == 0 && len(model) > 0 {
				e = model[int(next())%len(model)]
			} else {
				e = kv{string(keyOf()), ridOf()}
			}
			i, held := slices.BinarySearchFunc(model, e, cmp)
			err := tr.Delete([]byte(e.key), e.r)
			if held != (err == nil) {
				t.Fatalf("step %d: delete of %d-byte key at %v (held %v): %v", step, len(e.key), e.r, held, err)
			}
			if held {
				model = slices.Delete(model, i, i+1)
			}
		case 6:
			flags := next()
			var lo, hi []byte
			if flags&1 != 0 {
				lo = keyOf()
			}
			if flags&2 != 0 {
				hi = keyOf()
			}
			limit := int(flags >> 2) // 0: no early stop
			var want, got []kv
			for _, e := range model {
				if (lo == nil || e.key >= string(lo)) && (hi == nil || e.key <= string(hi)) && (limit == 0 || len(want) < limit) {
					want = append(want, e)
				}
			}
			err := tr.Range(lo, hi, func(k []byte, r storage.RID) bool {
				got = append(got, kv{string(k), r})
				return limit == 0 || len(got) < limit
			})
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("step %d: range [%.8q, %.8q] limit %d: %d entries (%v), want %d", step, lo, hi, limit, len(got), err, len(want))
			}
		case 7:
			if err := pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			pool = storage.NewPool(16)
			pool.AttachDisk(1, disk)
			if tr, err = Open(pool, 1); err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
		}
		height = max(height, tr.Height())
	}
	if got := scanAll(t, tr); !slices.Equal(got, model) {
		t.Fatalf("full scan: %d entries, want %d", len(got), len(model))
	}
	return height
}

// deepModelOps inserts 200 maximal keys, 32 distinct ones under distinct
// RIDs, so that splits reach a third level; then it deletes, ranges,
// reopens and inserts keys of every length.
func deepModelOps() []byte {
	var ops []byte
	for i := 0; i < 200; i++ {
		ops = append(ops, 0, byte(7|i%32<<3), byte(i), byte(i/64))
	}
	for i := 0; i < 40; i++ {
		ops = append(ops, 4, byte(i*7))
	}
	ops = append(ops, 6, 0, 6, 3, 0x0f, 0xe7, 6, 9<<2|1, 0x2f, 7)
	for i := 0; i < 100; i++ {
		ops = append(ops, 1, byte(i*37), byte(i), 1, 6, byte(i)|3, byte(i*5), byte(i*11))
	}
	return append(ops, 7, 6, 0)
}

func TestBTreeModelReachesThreeLevels(t *testing.T) {
	if h := runModel(t, deepModelOps()); h < 3 {
		t.Errorf("the deep model run reached height %d, want at least 3", h)
	}
}

// FuzzBTreeModel grows TestRandomizedAgainstModel into a fuzz test over
// runModel's operations.
func FuzzBTreeModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 4, 0, 6, 3, 0, 0, 7, 6, 0, 5, 0, 0, 0, 0})
	f.Add(deepModelOps())
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			return
		}
		runModel(t, ops)
	})
}

func TestRangeCountReportsPages(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 5000; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("key-%06d", i)), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Point lookup should touch ~height pages; a full scan touches many.
	point, err := tr.RangeCount([]byte("key-002500"), []byte("key-002500"), func([]byte, storage.RID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	full, err := tr.RangeCount(nil, nil, func([]byte, storage.RID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if point >= full {
		t.Errorf("point lookup touched %d pages, full scan %d", point, full)
	}
	if point > tr.Height()+2 {
		t.Errorf("point lookup touched %d pages with height %d", point, tr.Height())
	}
}

func TestLongKeysForceSplits(t *testing.T) {
	tr := newTree(t)
	// Large keys shrink fanout and force deep trees quickly.
	key := func(i int) []byte {
		return append(bytes.Repeat([]byte{'x'}, 900), []byte(fmt.Sprintf("%06d", i))...)
	}
	for i := 0; i < 200; i++ {
		if err := tr.Insert(key(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		got, err := tr.Search(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != rid(i) {
			t.Fatalf("key %d: got %v", i, got)
		}
	}
	if tr.Height() < 3 {
		t.Errorf("expected height >= 3 with 900-byte keys, got %d", tr.Height())
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := newTree(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("key-%09d", i)), rid(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearch(b *testing.B) {
	tr := newTree(b)
	for i := 0; i < 100000; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("key-%09d", i)), rid(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Search([]byte(fmt.Sprintf("key-%09d", i%100000))); err != nil {
			b.Fatal(err)
		}
	}
}
