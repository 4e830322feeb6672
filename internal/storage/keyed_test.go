package storage

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// keyedNet is the taxonomy FuzzStoredKeys labels its rows under.
var keyedNet = sync.OnceValue(func() *wordnet.Net {
	return wordnet.Generate(wordnet.Config{Synsets: 200, Seed: 3,
		Langs: []types.LangID{types.LangEnglish, types.LangTamil, types.LangFrench}})
})

// keyedRow is row i of the keyed-heap tests, a table (id INT, name UNITEXT):
// names in several languages, with and without a phoneme, one whose phoneme
// overflows the stored rune count, and a NULL.
func keyedRow(i int, text string) types.Tuple {
	name := types.NewUniText(types.UniText{Text: text, Lang: types.LangID(i % 7), Phoneme: strings.ToLower(text)})
	switch i % 11 {
	case 3:
		name = types.Null()
	case 5:
		name = types.NewUniText(types.Compose(text, types.LangTamil))
	case 7:
		name = types.NewUniText(types.UniText{Text: text, Lang: types.LangHindi, Phoneme: strings.Repeat("ɾ", 255+i%3)})
	}
	return types.Tuple{types.NewInt(int64(i)), name}
}

// insertKeyed inserts row into h as a table's heap keeps it: the record, and
// the keyed column's slot keys, labelled under net (nil: Unlabelled).
func insertKeyed(t testing.TB, h *Heap, net *wordnet.Net, row types.Tuple) RID {
	t.Helper()
	keyed, _ := types.KeyedColumn([]types.Kind{types.KindInt, types.KindUniText})
	rid, err := h.Insert(types.EncodeTuple(row), types.AppendSlotKeys(nil, row, keyed, net.LabelOf(row, keyed)))
	if err != nil {
		t.Fatal(err)
	}
	return rid
}

// checkSlotKeys reads every page of h and requires each live slot's keys to
// be those of its decoded record: its UNITEXT value's language, its
// phoneme's summary, with a rune count of 255 or more as RunesOverflow, and
// its text's label recomputed under net, and none for a NULL. It returns the
// live records, decoded.
func checkSlotKeys(t testing.TB, h *Heap, net *wordnet.Net) []types.Tuple {
	t.Helper()
	var rows []types.Tuple
	it := h.Scan()
	for more := true; more; {
		var err error
		more, err = it.NextPage(func(pg Page) error {
			for i := range pg.Len() {
				keys, live := pg.Keys(i)
				rec, recLive := pg.Record(i)
				if live != recLive {
					return fmt.Errorf("slot %d: Keys live = %v, Record live = %v", i, live, recLive)
				}
				if !live {
					continue
				}
				row, _, err := types.DecodeTuple(rec)
				if err != nil {
					return err
				}
				rows = append(rows, row)
				lang, got, ok := types.SlotKeys(keys)
				if v := row[1]; v.IsNull() {
					if ok {
						return fmt.Errorf("slot %d: keys %v %+v for a NULL", i, lang, got)
					}
				} else {
					u := v.UniText()
					want := types.Keys{Phoneme: types.Summarize([]byte(u.Phoneme)), Label: net.Label(u.Lang, u.Text)}
					want.Phoneme.Runes = min(want.Phoneme.Runes, types.RunesOverflow)
					if !ok || lang != u.Lang || got != want {
						return fmt.Errorf("slot %d: keys %v %+v %v, recomputed from %v: %v %+v", i, lang, got, ok, u, u.Lang, want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// A keyed heap's slots carry each row's keys beside its record: after
// deletes, every live slot's keys are still those of its decoded value, a
// deleted slot reads dead through Keys as through Record, and Get and
// NumRecords see the same rows.
func TestKeyedPageDeletedSlots(t *testing.T) {
	pool, file := newTestPool(t, 16)
	h, err := OpenHeap(pool, file, types.SlotKeyBytes)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := range 400 {
		rids = append(rids, insertKeyed(t, h, nil, keyedRow(i, fmt.Sprintf("Nehru%d", i))))
	}
	if h.NumPages() < 2 {
		t.Fatalf("%d pages, want several", h.NumPages())
	}
	for i := 0; i < len(rids); i += 3 {
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	rows := checkSlotKeys(t, h, nil)
	if int64(len(rows)) != h.NumRecords() || len(rows) != 400-134 {
		t.Fatalf("%d live slots, NumRecords %d, want %d", len(rows), h.NumRecords(), 400-134)
	}
	for k, row := range rows {
		i := int(row[0].Int())
		if i%3 == 0 {
			t.Fatalf("row %d was deleted but its slot is live", i)
		}
		rec, err := h.Get(rids[i])
		if err != nil || !bytes.Equal(rec, types.EncodeTuple(row)) {
			t.Fatalf("Get(%v) = %x, %v; the scan read row %d as %v", rids[i], rec, err, k, row)
		}
	}
	if _, err := h.Get(rids[0]); err == nil {
		t.Error("Get of a deleted record succeeded")
	}
}

// A keyed heap stores a record of exactly MaxRecordSize(keyBytes), 14 bytes
// less than an unkeyed heap's limit, with its keys, and refuses one byte
// more, and keys of the wrong width.
func TestKeyedHeapMaxRecordSize(t *testing.T) {
	pool, file := newTestPool(t, 8)
	h, err := OpenHeap(pool, file, types.SlotKeyBytes)
	if err != nil {
		t.Fatal(err)
	}
	limit := MaxRecordSize(types.SlotKeyBytes)
	if limit != MaxRecordSize(0)-types.SlotKeyBytes {
		t.Fatalf("keyed limit %d, unkeyed %d", limit, MaxRecordSize(0))
	}
	keys := bytes.Repeat([]byte{0xA5}, types.SlotKeyBytes)
	if _, err := h.Insert(make([]byte, limit+1), keys); err == nil || !strings.Contains(err.Error(), "exceeds max") {
		t.Fatalf("a record of %d bytes: %v, want refused", limit+1, err)
	}
	if _, err := h.Insert([]byte("x"), keys[1:]); err == nil {
		t.Fatal("keys one byte short accepted")
	}
	rec := bytes.Repeat([]byte{7}, limit)
	rid, err := h.Insert(rec, keys)
	if err != nil {
		t.Fatalf("a record of exactly %d bytes: %v", limit, err)
	}
	if got, err := h.Get(rid); err != nil || !bytes.Equal(got, rec) {
		t.Fatalf("Get = %d bytes, %v", len(got), err)
	}
	n := 0
	if _, err := h.Scan().NextPage(func(pg Page) error {
		for i := range pg.Len() {
			k, live := pg.Keys(i)
			r, _ := pg.Record(i)
			if !live || !bytes.Equal(k, keys) || !bytes.Equal(r, rec) {
				return fmt.Errorf("slot %d: keys %x live %v, record %d bytes", i, k, live, len(r))
			}
			n++
		}
		return nil
	}); err != nil || n != 1 {
		t.Fatalf("the page holds %d records, %v; want the one", n, err)
	}
}

// Random inserts and deletes through a keyed heap on an in-memory pool: every
// live slot's keys equal those recomputed from its decoded record, its label
// under the taxonomy it was written with, the live records are exactly those
// inserted and not deleted, and a reopen of the heap reads the same. Rows
// are the fuzzed text or, for a quarter of them, a word form of the taxonomy
// in the row's language, in lower or upper case, so labels, NoSynsets and
// Unlabelled (a heap written with no taxonomy) all occur.
func FuzzStoredKeys(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0x80, 4, 0x81, 5}, "Nehru")
	f.Add([]byte{7, 7, 7, 0x82, 0x80, 0x81, 9}, "சரித்திரம்")
	f.Add([]byte{3, 14, 25, 0x80, 36, 0x83}, "")
	f.Add(bytes.Repeat([]byte{1, 2, 0x80}, 60), "HISTORY of the world")
	f.Add([]byte{8, 12, 24, 36, 0x80, 40, 52}, "history")        // word forms, labelled
	f.Add([]byte{8, 12, 24, 36, 0x81, 40, 52, 64, 0}, "history") // the same, with no taxonomy
	f.Fuzz(func(t *testing.T, ops []byte, text string) {
		if len(ops) > 400 || len(text) > 200 {
			return
		}
		net := keyedNet()
		if len(ops)%5 == 4 {
			net = nil
		}
		pool, file := newTestPool(t, 8)
		h, err := OpenHeap(pool, file, types.SlotKeyBytes)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int64]RID{}
		var order []int64
		for n, op := range ops {
			// An op with its top bit set deletes the live row it picks; any
			// other inserts row n with op picking its shape.
			if op&0x80 != 0 {
				if len(order) == 0 {
					continue
				}
				k := int(op&0x7F) % len(order)
				id := order[k]
				if err := h.Delete(want[id]); err != nil {
					t.Fatal(err)
				}
				delete(want, id)
				order = append(order[:k], order[k+1:]...)
				continue
			}
			word := text + strings.Repeat("é", n%5)
			if op%4 == 0 {
				word = keyedNet().Lemma(types.LangID(int(op)%7), wordnet.SynsetID((int(op)*37+n)%200))
				if n%3 == 0 {
					word = strings.ToUpper(word)
				}
			}
			row := keyedRow(int(op), word)
			row[0] = types.NewInt(int64(n))
			want[int64(n)] = insertKeyed(t, h, net, row)
			order = append(order, int64(n))
		}
		check := func(h *Heap) {
			rows := checkSlotKeys(t, h, net)
			if len(rows) != len(want) || h.NumRecords() != int64(len(want)) {
				t.Fatalf("%d live records, NumRecords %d, want %d", len(rows), h.NumRecords(), len(want))
			}
			for _, row := range rows {
				if _, ok := want[row[0].Int()]; !ok {
					t.Fatalf("row %v is live but was deleted or never inserted", row)
				}
			}
		}
		check(h)
		reopened, err := OpenHeap(pool, file, types.SlotKeyBytes)
		if err != nil {
			t.Fatal(err)
		}
		check(reopened)
	})
}
