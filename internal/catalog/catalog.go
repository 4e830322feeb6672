// Package catalog holds the engine's metadata: table and index definitions
// and per-column statistics (end-biased histograms gathered by ANALYZE).
// Settings are not metadata: they belong to a session (package mural).
package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/mural-db/mural/internal/histogram"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

// Column describes one table column.
type Column struct {
	Name string     `json:"name"`
	Kind types.Kind `json:"kind"`
}

// Table describes one base table.
type Table struct {
	Name    string         `json:"name"`
	Columns []Column       `json:"columns"`
	File    storage.FileID `json:"file"`
}

// ColumnIndex returns the position of a column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Index describes one secondary index.
type Index struct {
	Name   string         `json:"name"`
	Table  string         `json:"table"`
	Column string         `json:"column"`
	Kind   sql.IndexKind  `json:"kind"`
	File   storage.FileID `json:"file"` // zero for a q-gram index, which lives in memory
	// Pivot is the MDI pivot string (MDI only).
	Pivot string `json:"pivot,omitempty"`
}

// ColumnStats summarizes one column for the optimizer.
type ColumnStats struct {
	// Hist is built over phoneme strings for UNITEXT columns and canonical
	// string forms otherwise.
	Hist *histogram.Histogram `json:"hist"`
	// AvgWidth is the mean encoded width in bytes.
	AvgWidth float64 `json:"avg_width"`
	// NullFrac is the fraction of NULL values.
	NullFrac float64 `json:"null_frac"`
}

// TableStats summarizes one table for the optimizer.
type TableStats struct {
	Rows    int64                   `json:"rows"`
	Pages   int64                   `json:"pages"`
	Columns map[string]*ColumnStats `json:"columns"`
}

// Catalog is the full metadata store. All methods are safe for concurrent
// use.
type Catalog struct {
	mu       sync.RWMutex
	tables   map[string]*Table
	indexes  map[string]*Index
	stats    map[string]*TableStats
	nextFile storage.FileID
	// version counts metadata mutations (DDL and stats). Plan caches
	// key on it: any change that could alter planning bumps it, so stale
	// plans simply stop matching.
	version uint64
}

// Version returns the metadata mutation counter.
func (c *Catalog) Version() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:   make(map[string]*Table),
		indexes:  make(map[string]*Index),
		stats:    make(map[string]*TableStats),
		nextFile: 1,
	}
}

// AllocateFile hands out the next storage file id.
func (c *Catalog) AllocateFile() storage.FileID {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextFile
	c.nextFile++
	return id
}

// AddTable registers a table.
func (c *Catalog) AddTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	seen := make(map[string]bool, len(t.Columns))
	for _, col := range t.Columns {
		if seen[col.Name] {
			return fmt.Errorf("catalog: table %q: duplicate column %q", t.Name, col.Name)
		}
		seen[col.Name] = true
	}
	c.tables[t.Name] = t
	c.version++
	return nil
}

// DropTable removes a table and its indexes, returning the dropped index
// metadata so the engine can release their files.
func (c *Catalog) DropTable(name string) ([]*Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	delete(c.tables, name)
	delete(c.stats, name)
	var dropped []*Index
	for iname, ix := range c.indexes {
		if ix.Table == name {
			dropped = append(dropped, ix)
			delete(c.indexes, iname)
		}
	}
	c.version++
	return dropped, nil
}

// TableByName looks up a table.
func (c *Catalog) TableByName(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// Tables lists all tables, sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddIndex registers an index.
func (c *Catalog) AddIndex(ix *Index) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.indexes[ix.Name]; dup {
		return fmt.Errorf("catalog: index %q already exists", ix.Name)
	}
	t, ok := c.tables[ix.Table]
	if !ok {
		return fmt.Errorf("catalog: index %q: no such table %q", ix.Name, ix.Table)
	}
	if t.ColumnIndex(ix.Column) < 0 {
		return fmt.Errorf("catalog: index %q: no column %q in table %q", ix.Name, ix.Column, ix.Table)
	}
	c.indexes[ix.Name] = ix
	c.version++
	return nil
}

// RemoveIndex unregisters an index (used to undo a failed CREATE INDEX).
func (c *Catalog) RemoveIndex(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.indexes[name]; !ok {
		return fmt.Errorf("catalog: index %q does not exist", name)
	}
	delete(c.indexes, name)
	c.version++
	return nil
}

// IndexByName looks up an index.
func (c *Catalog) IndexByName(name string) (*Index, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ix, ok := c.indexes[name]
	return ix, ok
}

// IndexesOn lists the indexes on a table column (every column when column
// is empty), sorted by name.
func (c *Catalog) IndexesOn(table, column string) []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Index
	for _, ix := range c.indexes {
		if ix.Table == table && (column == "" || ix.Column == column) {
			out = append(out, ix)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Indexes lists all indexes, sorted by name.
func (c *Catalog) Indexes() []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Index, 0, len(c.indexes))
	for _, ix := range c.indexes {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetStats installs ANALYZE results for a table (nil removes them) and
// returns the ones it replaced, so a failed commit can put them back.
func (c *Catalog) SetStats(table string, st *TableStats) *TableStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.stats[table]
	if st == nil {
		delete(c.stats, table)
	} else {
		c.stats[table] = st
	}
	c.version++
	return prev
}

// Stats returns the ANALYZE results for a table (nil when never analyzed).
func (c *Catalog) Stats(table string) *TableStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stats[table]
}

// ErrFormat reports a catalog image of another on-disk format than
// types.RecordFormat, the one this build reads; an image with no format
// number predates the numbering.
var ErrFormat = errors.New("catalog: data directory of another on-disk format")

// persisted is the JSON disk image. Format is the on-disk format its data
// files are in (types.RecordFormat).
type persisted struct {
	Format   int                    `json:"format"`
	Tables   []*Table               `json:"tables"`
	Indexes  []*Index               `json:"indexes"`
	Stats    map[string]*TableStats `json:"stats"`
	NextFile storage.FileID         `json:"next_file"`
}

// Marshal renders the catalog as its canonical JSON disk image. The engine
// logs this image in WAL commit batches so DDL moves atomically with the
// page mutations it accompanies.
func (c *Catalog) Marshal() ([]byte, error) {
	c.mu.RLock()
	img := persisted{
		Format:   types.RecordFormat,
		Stats:    c.stats,
		NextFile: c.nextFile,
	}
	for _, t := range c.tables {
		img.Tables = append(img.Tables, t)
	}
	for _, ix := range c.indexes {
		img.Indexes = append(img.Indexes, ix)
	}
	c.mu.RUnlock()
	sort.Slice(img.Tables, func(i, j int) bool { return img.Tables[i].Name < img.Tables[j].Name })
	sort.Slice(img.Indexes, func(i, j int) bool { return img.Indexes[i].Name < img.Indexes[j].Name })

	data, err := json.MarshalIndent(&img, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("catalog: marshal: %w", err)
	}
	return data, nil
}

// Save writes the catalog to dir/catalog.json atomically.
func (c *Catalog) Save(dir string) error {
	data, err := c.Marshal()
	if err != nil {
		return err
	}
	return SaveImage(dir, data)
}

// SaveImage atomically installs a marshaled catalog image as
// dir/catalog.json. Crash recovery uses it to restore the catalog snapshot
// carried by the last committed WAL batch.
func SaveImage(dir string, data []byte) error {
	tmp := filepath.Join(dir, "catalog.json.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("catalog: write: %w", err)
	}
	return os.Rename(tmp, filepath.Join(dir, "catalog.json"))
}

// readImage reads dir/catalog.json; nil when there is none.
func readImage(dir string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: read: %w", err)
	}
	return data, nil
}

// parse decodes a marshaled image, refusing one of another format with
// ErrFormat.
func parse(data []byte) (*persisted, error) {
	var img persisted
	if err := json.Unmarshal(data, &img); err != nil {
		return nil, fmt.Errorf("catalog: parse: %w", err)
	}
	switch img.Format {
	case types.RecordFormat:
	case 0:
		return nil, fmt.Errorf("%w: no format number (written before formats were numbered), this build reads format %d", ErrFormat, types.RecordFormat)
	default:
		return nil, fmt.Errorf("%w: format %d, this build reads format %d", ErrFormat, img.Format, types.RecordFormat)
	}
	return &img, nil
}

// CheckFormat refuses, with ErrFormat, a directory of another on-disk
// format: its catalog is img, a marshaled image, or dir/catalog.json when img
// is nil. A directory with neither is fresh.
func CheckFormat(dir string, img []byte) error {
	if img == nil {
		var err error
		if img, err = readImage(dir); err != nil || img == nil {
			return err
		}
	}
	_, err := parse(img)
	return err
}

// Load reads dir/catalog.json; a missing file yields a fresh catalog, and an
// image of another format is refused with ErrFormat.
func Load(dir string) (*Catalog, error) {
	c := New()
	data, err := readImage(dir)
	if err != nil {
		return nil, err
	}
	if data == nil {
		return c, nil
	}
	img, err := parse(data)
	if err != nil {
		return nil, err
	}
	for _, t := range img.Tables {
		c.tables[t.Name] = t
	}
	for _, ix := range img.Indexes {
		c.indexes[ix.Name] = ix
	}
	if img.Stats != nil {
		c.stats = img.Stats
	}
	if img.NextFile > c.nextFile {
		c.nextFile = img.NextFile
	}
	return c, nil
}
