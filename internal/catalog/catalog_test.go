package catalog

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/histogram"
	"github.com/mural-db/mural/internal/sql"
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

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := New()
	if err := c.AddTable(bookTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(&Index{Name: "i1", Table: "book", Column: "author", Kind: sql.IndexMDI, File: 11, Pivot: "vp"}); err != nil {
		t.Fatal(err)
	}
	c.SetStats("book", &TableStats{
		Rows:  123,
		Pages: 4,
		Columns: map[string]*ColumnStats{
			"author": {Hist: histogram.Build([]string{"a", "b", "a"}, 10), AvgWidth: 12},
		},
	})
	c.AllocateFile()
	next := c.AllocateFile() + 1

	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	c2, err := Load(dir)
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
	if st == nil || st.Rows != 123 || st.Columns["author"].Hist.TotalRows != 3 {
		t.Errorf("reloaded stats: %+v", st)
	}
	if got := c2.AllocateFile(); got < next {
		t.Errorf("file allocation regressed: %d < %d", got, next)
	}
}

func TestLoadMissingDirIsFresh(t *testing.T) {
	c, err := Load(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Tables()) != 0 {
		t.Error("fresh catalog expected")
	}
}

// An image records the on-disk format it was written in, and Load refuses
// an image with another number or none.
func TestLoadRefusesOtherFormat(t *testing.T) {
	c := New()
	if err := c.AddTable(bookTable()); err != nil {
		t.Fatal(err)
	}
	img, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFormat(t.TempDir(), img); err != nil {
		t.Fatalf("this build's image refused: %v", err)
	}
	current := fmt.Sprintf(`"format": %d`, types.RecordFormat)
	if !strings.Contains(string(img), current) {
		t.Fatalf("image does not record %s:\n%s", current, img)
	}
	for _, other := range []string{strings.Replace(string(img), current, `"format": 0`, 1), strings.Replace(string(img), current+",", "", 1),
		strings.Replace(string(img), current, fmt.Sprintf(`"format": %d`, types.RecordFormat+1), 1)} {
		dir := t.TempDir()
		if err := SaveImage(dir, []byte(other)); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); !errors.Is(err, ErrFormat) {
			t.Errorf("Load = %v, want ErrFormat, of\n%s", err, other)
		}
		if err := CheckFormat(dir, nil); !errors.Is(err, ErrFormat) {
			t.Errorf("CheckFormat of catalog.json = %v, want ErrFormat, of\n%s", err, other)
		}
		if err := CheckFormat(t.TempDir(), []byte(other)); !errors.Is(err, ErrFormat) {
			t.Errorf("CheckFormat of a logged image = %v, want ErrFormat, of\n%s", err, other)
		}
	}
}
