package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"github.com/mural-db/mural/internal/histogram"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

func bookTable() *Table {
	return &Table{
		Name: "book",
		Columns: []Column{
			{Name: "id", Kind: types.KindInt},
			{Name: "author", Kind: types.KindUniText},
			{Name: "title", Kind: types.KindText},
		},
		File: 7,
	}
}

func TestAddLookupTable(t *testing.T) {
	c := New()
	if err := c.AddTable(bookTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(bookTable()); err == nil {
		t.Error("duplicate table must fail")
	}
	tb, ok := c.TableByName("book")
	if !ok || tb.ColumnIndex("author") != 1 || tb.ColumnIndex("nope") != -1 {
		t.Errorf("lookup failed: %+v", tb)
	}
	if len(c.Tables()) != 1 {
		t.Error("Tables()")
	}
}

func TestDuplicateColumnRejected(t *testing.T) {
	c := New()
	err := c.AddTable(&Table{Name: "t", Columns: []Column{
		{Name: "x", Kind: types.KindInt}, {Name: "x", Kind: types.KindText},
	}})
	if err == nil {
		t.Error("duplicate column must fail")
	}
}

func TestIndexes(t *testing.T) {
	c := New()
	if err := c.AddTable(bookTable()); err != nil {
		t.Fatal(err)
	}
	ix := &Index{Name: "idx_author", Table: "book", Column: "author", Kind: sql.IndexMTree, File: 9}
	if err := c.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(ix); err == nil {
		t.Error("duplicate index must fail")
	}
	if err := c.AddIndex(&Index{Name: "i2", Table: "ghost", Column: "x"}); err == nil {
		t.Error("index on missing table must fail")
	}
	if err := c.AddIndex(&Index{Name: "i3", Table: "book", Column: "ghost"}); err == nil {
		t.Error("index on missing column must fail")
	}
	got := c.IndexesOn("book", "author")
	if len(got) != 1 || got[0].Name != "idx_author" {
		t.Errorf("IndexesOn = %+v", got)
	}
	if len(c.IndexesOn("book", "title")) != 0 {
		t.Error("IndexesOn wrong column")
	}
	if _, ok := c.IndexByName("idx_author"); !ok {
		t.Error("IndexByName")
	}
	if len(c.Indexes()) != 1 {
		t.Error("Indexes()")
	}
}

func TestDropTableCascades(t *testing.T) {
	c := New()
	if err := c.AddTable(bookTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(&Index{Name: "i1", Table: "book", Column: "author"}); err != nil {
		t.Fatal(err)
	}
	c.SetStats("book", &TableStats{Rows: 5})
	dropped, err := c.DropTable("book")
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || dropped[0].Name != "i1" {
		t.Errorf("dropped = %+v", dropped)
	}
	if _, ok := c.TableByName("book"); ok {
		t.Error("table still present")
	}
	if c.Stats("book") != nil {
		t.Error("stats still present")
	}
	if _, err := c.DropTable("book"); err == nil {
		t.Error("double drop must fail")
	}
}

func TestFileAllocation(t *testing.T) {
	c := New()
	a, b := c.AllocateFile(), c.AllocateFile()
	if a == b || a == 0 || b == 0 {
		t.Errorf("allocations: %d %d", a, b)
	}
}

// filePool is a pool with File attached on an in-memory disk.
func filePool(d storage.Disk) *storage.Pool {
	p := storage.NewPool(16)
	p.AttachDisk(File, d)
	return p
}

// store commits c's image into File's pages in one batch.
func store(t *testing.T, p *storage.Pool, c *Catalog) {
	t.Helper()
	if err := p.BeginBatch(); err != nil {
		t.Fatal(err)
	}
	if err := c.Store(p); err != nil {
		t.Fatal(errors.Join(err, p.AbortBatch()))
	}
	s, err := p.SealBatch()
	if err == nil {
		err = s.Wait()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// The image round-trips through File's pages, read through the pool that
// wrote it and through a fresh pool over the same disk. An image longer
// than a page runs on through the next pages, and a shorter one stored over
// it reads back alone.
func TestStoreLoadRoundTrip(t *testing.T) {
	c := New()
	if err := c.AddTable(bookTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(&Index{Name: "i1", Table: "book", Column: "author", Kind: sql.IndexMDI, File: 11, Pivot: "vp"}); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 3000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%05d", i)
	}
	c.SetStats("book", &TableStats{
		Rows:  123,
		Pages: 4,
		Columns: map[string]*ColumnStats{
			"author": {Hist: histogram.Build([]string{"a", "b", "a"}, 10), AvgWidth: 12},
			"title":  {Hist: histogram.Build(keys, len(keys))},
		},
	})
	c.AllocateFile()
	next := c.AllocateFile() + 1

	disk := storage.NewMemDisk()
	p := filePool(disk)
	store(t, p, c)
	if disk.NumPages() < 2 {
		t.Fatalf("an image with a 3000-key histogram fills %d page, want it to run on", disk.NumPages())
	}
	for _, from := range []*storage.Pool{p, filePool(disk)} {
		c2, err := Load(from)
		if err != nil {
			t.Fatal(err)
		}
		tb, ok := c2.TableByName("book")
		if !ok || len(tb.Columns) != 3 || tb.File != 7 {
			t.Errorf("reloaded table: %+v", tb)
		}
		ix, ok := c2.IndexByName("i1")
		if !ok || ix.Kind != sql.IndexMDI || ix.Pivot != "vp" {
			t.Errorf("reloaded index: %+v", ix)
		}
		st := c2.Stats("book")
		if st == nil || st.Rows != 123 || st.Columns["author"].Hist.TotalRows != 3 || st.Columns["title"].Hist.TotalRows != 3000 {
			t.Errorf("reloaded stats: %+v", st)
		}
		if got := c2.AllocateFile(); got < next {
			t.Errorf("file allocation regressed: %d < %d", got, next)
		}
	}

	if _, err := c.DropTable("book"); err != nil {
		t.Fatal(err)
	}
	store(t, p, c)
	c3, err := Load(filePool(disk))
	if err != nil {
		t.Fatal(err)
	}
	if len(c3.Tables()) != 0 || c3.Stats("book") != nil {
		t.Errorf("a shorter image stored over a longer one reads back %v, stats %v", c3.Tables(), c3.Stats("book"))
	}
}

// A File with no page, or with a page 0 still zero (allocated by a batch
// that never committed), holds no catalog yet.
func TestLoadEmptyFileIsFresh(t *testing.T) {
	disk := storage.NewMemDisk()
	for pages := 0; pages < 2; pages++ {
		c, err := Load(filePool(disk))
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Tables()) != 0 {
			t.Errorf("%d zero pages: fresh catalog expected", pages)
		}
		if _, err := disk.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
}

// Page 0 records the on-disk format the image was written in; CheckFormat
// (on page 0's payload) and Load refuse another number.
func TestLoadRefusesOtherFormat(t *testing.T) {
	c := New()
	if err := c.AddTable(bookTable()); err != nil {
		t.Fatal(err)
	}
	disk := storage.NewMemDisk()
	store(t, filePool(disk), c)
	page := make([]byte, storage.PageSize)
	if err := disk.ReadPage(0, page); err != nil {
		t.Fatal(err)
	}
	hdr := page[storage.PageSize-storage.PagePayload:]
	if _, err := CheckFormat(hdr); err != nil {
		t.Fatalf("this build's page refused: %v", err)
	}
	if got := binary.LittleEndian.Uint32(hdr); got != types.RecordFormat {
		t.Fatalf("page 0 records format %d, want %d", got, types.RecordFormat)
	}
	for _, other := range []uint32{0, 1, types.RecordFormat + 1} {
		binary.LittleEndian.PutUint32(hdr, other)
		binary.LittleEndian.PutUint32(page, crc32.ChecksumIEEE(hdr))
		if _, err := CheckFormat(hdr); !errors.Is(err, storage.ErrFormat) {
			t.Errorf("CheckFormat of format %d = %v, want ErrFormat", other, err)
		}
		if err := disk.WritePage(0, page); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(filePool(disk)); !errors.Is(err, storage.ErrFormat) {
			t.Errorf("Load of format %d = %v, want ErrFormat", other, err)
		}
	}
}
