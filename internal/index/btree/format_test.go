package btree

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"github.com/mural-db/mural/internal/storage"
)

// goldenTreeSHA256 is the SHA-256 of every page payload of goldenTree's
// file, in page order, as the node encoder of the decoding tree (the one
// before nodes were searched and updated in place) wrote them. Bytes 12–20
// of the meta page, where that tree kept its entry count, are hashed as
// zeros: nothing reads them.
const goldenTreeSHA256 = "66b9c0bfbc124fbe8ae0bcf1558ac7cab550a4d8debc8de802b1d5b17b9dcb15"

// goldenTree builds a fixed tree of three levels: keys of 0 to 200 bytes,
// duplicate keys under distinct RIDs, and every seventh entry deleted after
// the load.
func goldenTree(t *testing.T) (*storage.Pool, *BTree) {
	t.Helper()
	pool := storage.NewPool(64)
	pool.AttachDisk(1, storage.NewMemDisk())
	tr, err := Create(pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	type pair struct {
		key []byte
		r   storage.RID
	}
	var pairs []pair
	for i := 0; i < 8000; i++ {
		k := fmt.Appendf(nil, "%0*d", rng.Intn(201), rng.Intn(900))
		if rng.Intn(40) == 0 {
			k = k[:0]
		}
		p := pair{key: k, r: rid(i)}
		if err := tr.Insert(p.key, p.r); err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, p)
	}
	for i := 0; i < len(pairs); i += 7 {
		if err := tr.Delete(pairs[i].key, pairs[i].r); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("golden tree has height %d, want at least 3", tr.Height())
	}
	return pool, tr
}

// TestPageGolden pins the node format: the pages of a fixed tree must be
// byte for byte what the decoding encoder wrote, so that files written
// before nodes were updated in place open unchanged.
func TestPageGolden(t *testing.T) {
	pool, _ := goldenTree(t)
	n, err := pool.DiskPages(1)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.New()
	for p := storage.PageID(0); p < n; p++ {
		h, err := pool.Pin(storage.PageKey{File: 1, Page: p})
		if err != nil {
			t.Fatal(err)
		}
		d := append([]byte(nil), h.Data()...)
		h.Unpin()
		if p == metaPage {
			clear(d[12:20])
		}
		sum.Write(d)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != goldenTreeSHA256 {
		t.Errorf("pages of the golden tree (%d pages) hash to %s, want %s", n, got, goldenTreeSHA256)
	}
}
