// Package catalog holds the engine's metadata: table and index definitions
// and per-column statistics (end-biased histograms gathered by ANALYZE).
// Settings are not metadata: they belong to a session (package mural).
package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
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
	// taxonomy is the fingerprint of the taxonomy the stored rows' Ω labels
	// were computed under (wordnet.Net.Fingerprint), 0 while none was.
	taxonomy uint64
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

// Taxonomy returns the fingerprint of the taxonomy the database pins, 0 when
// it pins none yet.
func (c *Catalog) Taxonomy() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.taxonomy
}

// SetTaxonomy pins the taxonomy of fingerprint fp (0 unpins). It does not
// move Version: no plan depends on it.
func (c *Catalog) SetTaxonomy(fp uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.taxonomy = fp
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

// File is the reserved data file whose pages hold the catalog image; table
// and index files are numbered from 1. Page 0 begins with the on-disk format
// (types.RecordFormat) and the image's length as little-endian uint32s; the
// image runs on through the payload of pages 1, 2, ... DDL writes it through
// the buffer pool in its own batch, so a schema change commits, replays and
// checkpoints as data does.
const File storage.FileID = 0

const headerBytes = 8

// persisted is the JSON image.
type persisted struct {
	Tables   []*Table               `json:"tables"`
	Indexes  []*Index               `json:"indexes"`
	Stats    map[string]*TableStats `json:"stats"`
	NextFile storage.FileID         `json:"next_file"`
	Taxonomy uint64                 `json:"taxonomy,omitempty"`
}

// Store writes the catalog's header and JSON image into File's pages
// through p, inside the caller's open batch. A page whose bytes stay the
// same is not dirtied, so it adds nothing to the batch.
func (c *Catalog) Store(p *storage.Pool) error {
	c.mu.RLock()
	img := persisted{Stats: c.stats, NextFile: c.nextFile, Taxonomy: c.taxonomy}
	for _, t := range c.tables {
		img.Tables = append(img.Tables, t)
	}
	for _, ix := range c.indexes {
		img.Indexes = append(img.Indexes, ix)
	}
	c.mu.RUnlock()
	sort.Slice(img.Tables, func(i, j int) bool { return img.Tables[i].Name < img.Tables[j].Name })
	sort.Slice(img.Indexes, func(i, j int) bool { return img.Indexes[i].Name < img.Indexes[j].Name })
	data, err := json.Marshal(&img)
	if err != nil {
		return fmt.Errorf("catalog: marshal: %w", err)
	}
	buf := binary.LittleEndian.AppendUint32(nil, types.RecordFormat)
	buf = append(binary.LittleEndian.AppendUint32(buf, uint32(len(data))), data...)
	have, err := p.DiskPages(File)
	if err != nil {
		return err
	}
	for pg := storage.PageID(0); len(buf) > 0; pg++ {
		var h *storage.Handle
		if pg < have {
			h, err = p.Pin(storage.PageKey{File: File, Page: pg})
		} else {
			h, err = p.NewPage(File)
		}
		if err != nil {
			return err
		}
		page := h.Data()
		n := min(len(buf), len(page))
		if !bytes.Equal(page[:n], buf[:n]) {
			copy(page, buf[:n])
			h.MarkDirty()
		}
		h.Unpin()
		buf = buf[n:]
	}
	return nil
}

// CheckFormat decodes the header of File's page 0 — its payload, past the
// page checksum — into the image's length, refusing with storage.ErrFormat
// a header of another format. A page 0 still all zero holds no image yet.
func CheckFormat(payload []byte) (int, error) {
	format, n := binary.LittleEndian.Uint32(payload[0:4]), binary.LittleEndian.Uint32(payload[4:8])
	if format != types.RecordFormat && (format != 0 || n != 0) {
		return 0, fmt.Errorf("%w: catalog of format %d, this build reads format %d", storage.ErrFormat, format, types.RecordFormat)
	}
	return int(n), nil
}

// Load reads the catalog from File's pages through p. A file with no image
// yet yields a fresh catalog; an image of another format is refused with
// storage.ErrFormat.
func Load(p *storage.Pool) (*Catalog, error) {
	c := New()
	pages, err := p.DiskPages(File)
	if err != nil {
		return nil, err
	}
	var buf []byte
	for pg := storage.PageID(0); pg < pages; pg++ {
		h, err := p.Pin(storage.PageKey{File: File, Page: pg})
		if err != nil {
			return nil, err
		}
		buf = append(buf, h.Data()...)
		h.Unpin()
	}
	if len(buf) == 0 {
		return c, nil
	}
	n, err := CheckFormat(buf)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return c, nil
	}
	if headerBytes+n > len(buf) {
		return nil, fmt.Errorf("catalog: image of %d bytes, file %d holds %d", n, File, len(buf)-headerBytes)
	}
	var img persisted
	if err := json.Unmarshal(buf[headerBytes:headerBytes+n], &img); err != nil {
		return nil, fmt.Errorf("catalog: parse: %w", err)
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
	c.taxonomy = img.Taxonomy
	return c, nil
}
