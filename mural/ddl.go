package mural

import (
	"encoding/hex"
	"fmt"
	"os"

	"github.com/mural-db/mural/internal/catalog"
	"github.com/mural-db/mural/internal/exec"
	"github.com/mural-db/mural/internal/histogram"
	"github.com/mural-db/mural/internal/index/btree"
	"github.com/mural-db/mural/internal/index/mdi"
	"github.com/mural-db/mural/internal/index/mtree"
	"github.com/mural-db/mural/internal/index/qgram"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
)

func (e *Engine) execCreateTable(s *sql.CreateTable) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	file := e.cat.AllocateFile()
	t := &catalog.Table{Name: s.Name, File: file}
	for _, c := range s.Columns {
		t.Columns = append(t.Columns, catalog.Column{Name: c.Name, Kind: c.Kind})
	}
	if err := e.cat.AddTable(t); err != nil {
		return nil, err
	}
	undo := func() {
		_, _ = e.cat.DropTable(s.Name)
		delete(e.heaps, s.Name)
	}
	if err := e.attachFile(file); err != nil {
		undo()
		return nil, err
	}
	if err := e.beginBatch(); err != nil {
		undo()
		return nil, err
	}
	h, err := storage.OpenHeap(e.pool, file)
	if err != nil {
		_ = e.rollbackBatch("")
		undo()
		return nil, err
	}
	e.heaps[s.Name] = h
	if err := e.commitDDL(); err != nil {
		_ = e.rollbackBatch("")
		undo()
		return nil, err
	}
	return &Result{}, e.saveCatalog()
}

// commitDDL commits the open batch together with a snapshot of the catalog,
// so the schema change and its page mutations become durable atomically.
func (e *Engine) commitDDL() error {
	if e.wal == nil {
		return nil
	}
	img, err := e.cat.Marshal()
	if err != nil {
		return err
	}
	return e.commitBatch(img)
}

func (e *Engine) execDropTable(s *sql.DropTable) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.cat.TableByName(s.Name)
	if !ok {
		return nil, fmt.Errorf("mural: no such table %q", s.Name)
	}
	droppedIdx, err := e.cat.DropTable(s.Name)
	if err != nil {
		return nil, err
	}
	// Commit the catalog change before releasing anything: if the commit
	// fails, the drop is undone in memory and nothing was touched.
	if e.wal != nil {
		err := e.beginBatch()
		if err == nil {
			err = e.commitDDL()
		}
		if err != nil {
			_ = e.rollbackBatch("")
			_ = e.cat.AddTable(t)
			for _, ix := range droppedIdx {
				_ = e.cat.AddIndex(ix)
			}
			return nil, err
		}
	}
	// A concurrent session's sealed batch may still hold pages of this
	// table's files; let those group commits finish before detaching.
	e.pool.WaitSealedDrained()
	release := func(file storage.FileID) {
		if d, ok := e.disks[file]; ok {
			_ = e.pool.DetachDisk(file)
			_ = d.Close()
			delete(e.disks, file)
		}
		if e.cfg.Dir != "" {
			_ = os.Remove(dataFilePath(e.cfg.Dir, file))
		}
	}
	delete(e.heaps, s.Name)
	for _, ix := range droppedIdx {
		delete(e.btrees, ix.Name)
		delete(e.mtrees, ix.Name)
		delete(e.mdis, ix.Name)
		delete(e.qgrams, ix.Name)
	}
	// Handles are unreachable now; wait out searches that pinned them while
	// they were still visible before detaching their storage (see pinSet).
	e.pins.wait(s.Name) //lint:lock-held-io pinned searches never reacquire e.mu, so draining under the write lock cannot deadlock
	for _, ix := range droppedIdx {
		e.pins.wait(ix.Name) //lint:lock-held-io same audit as the table drain above
	}
	release(t.File)
	for _, ix := range droppedIdx {
		if ix.Kind != sql.IndexQGram {
			release(ix.File)
		}
	}
	return &Result{}, e.saveCatalog()
}

// execDropIndex removes a secondary index. The catalog entry and handle-map
// entry go first — new searches then miss — and the drop waits for in-flight
// searches pinned on the handle before detaching its file, closing the
// handle-escapes-lock race with Env probe methods.
func (e *Engine) execDropIndex(s *sql.DropIndex) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ix, ok := e.cat.IndexByName(s.Name)
	if !ok {
		return nil, fmt.Errorf("mural: no such index %q", s.Name)
	}
	if err := e.cat.RemoveIndex(s.Name); err != nil {
		return nil, err
	}
	// Commit the catalog change before releasing anything, mirroring DROP
	// TABLE: a failed commit undoes the drop in memory and touches nothing.
	if e.wal != nil {
		err := e.beginBatch()
		if err == nil {
			err = e.commitDDL()
		}
		if err != nil {
			_ = e.rollbackBatch("")
			_ = e.cat.AddIndex(ix)
			return nil, err
		}
	}
	e.pool.WaitSealedDrained()
	delete(e.btrees, s.Name)
	delete(e.mtrees, s.Name)
	delete(e.mdis, s.Name)
	delete(e.qgrams, s.Name)
	e.pins.wait(s.Name) //lint:lock-held-io pinned searches never reacquire e.mu, so draining under the write lock cannot deadlock
	// Q-gram indexes are memory-resident and have no file to release.
	if ix.Kind != sql.IndexQGram {
		if d, ok := e.disks[ix.File]; ok {
			_ = e.pool.DetachDisk(ix.File)
			_ = d.Close()
			delete(e.disks, ix.File)
		}
		if e.cfg.Dir != "" {
			_ = os.Remove(dataFilePath(e.cfg.Dir, ix.File))
		}
	}
	return &Result{}, e.saveCatalog()
}

func (e *Engine) execCreateIndex(s *sql.CreateIndex) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.cat.TableByName(s.Table)
	if !ok {
		return nil, fmt.Errorf("mural: no such table %q", s.Table)
	}
	colIdx := t.ColumnIndex(s.Column)
	if colIdx < 0 {
		return nil, fmt.Errorf("mural: no column %q in table %q", s.Column, s.Table)
	}
	colKind := t.Columns[colIdx].Kind
	if (s.Kind == sql.IndexMTree || s.Kind == sql.IndexMDI || s.Kind == sql.IndexQGram) && colKind != types.KindUniText {
		return nil, fmt.Errorf("mural: %s indexes require a UNITEXT column", s.Kind)
	}
	if _, dup := e.cat.IndexByName(s.Name); dup {
		return nil, fmt.Errorf("mural: index %q already exists", s.Name)
	}
	file := e.cat.AllocateFile()
	if err := e.attachFile(file); err != nil {
		return nil, err
	}
	meta := &catalog.Index{Name: s.Name, Table: s.Table, Column: s.Column, Kind: s.Kind, File: file}

	// The catalog entry is added only after a complete backfill, so a crash
	// or error mid-build leaves at worst an orphan file that recovery (or
	// the cleanup below) removes — never a half-built index the planner
	// could choose.
	cleanup := func() {
		delete(e.btrees, s.Name)
		delete(e.mtrees, s.Name)
		delete(e.mdis, s.Name)
		delete(e.qgrams, s.Name)
		if d, ok := e.disks[file]; ok {
			_ = e.pool.DetachDisk(file)
			_ = d.Close()
			delete(e.disks, file)
		}
		if e.cfg.Dir != "" {
			_ = os.Remove(dataFilePath(e.cfg.Dir, file))
		}
	}
	if err := e.beginBatch(); err != nil {
		return nil, err
	}
	fail := func(err error) (*Result, error) {
		_ = e.pool.AbortBatch()
		cleanup()
		return nil, err
	}

	switch s.Kind {
	case sql.IndexBTree:
		bt, err := btree.Create(e.pool, file)
		if err != nil {
			return fail(err)
		}
		e.btrees[s.Name] = bt
	case sql.IndexMTree:
		mt, err := mtree.Create(e.pool, file, mtree.SplitRandom)
		if err != nil {
			return fail(err)
		}
		e.mtrees[s.Name] = mt
	case sql.IndexMDI:
		meta.Pivot = mdi.DefaultPivot
		md, err := mdi.Create(e.pool, file, meta.Pivot)
		if err != nil {
			return fail(err)
		}
		e.mdis[s.Name] = md
	case sql.IndexQGram:
		e.qgrams[s.Name] = qgram.New(0)
	}
	// Backfill from existing rows, committing in chunks so the no-steal
	// policy never pins more pages than the pool holds. The heap is not
	// mutated, so any committed prefix of the build is consistent; the
	// index only becomes visible when the final batch commits the catalog
	// entry.
	h := e.heaps[s.Table]
	it := h.Scan()
	for {
		rid, rec, ok, err := it.Next()
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		tup, _, err := types.DecodeTuple(rec)
		if err != nil {
			return fail(err)
		}
		if err := e.indexOne(meta, colIdx, tup, rid); err != nil {
			return fail(err)
		}
		if e.wal != nil && e.pool.BatchPages() >= createIndexChunkPages {
			if err := e.commitBatch(nil); err != nil {
				return fail(err)
			}
			//lint:wal-exempt reopened chunk batch is closed by commitDDL or fail at function level
			if err := e.beginBatch(); err != nil {
				cleanup()
				return nil, err
			}
		}
	}
	if err := e.cat.AddIndex(meta); err != nil {
		return fail(err)
	}
	if err := e.commitDDL(); err != nil {
		_ = e.pool.AbortBatch()
		_ = e.cat.RemoveIndex(meta.Name)
		cleanup()
		return nil, err
	}
	return &Result{}, e.saveCatalog()
}

// createIndexChunkPages bounds how many dirty pages a CREATE INDEX backfill
// accumulates before committing an intermediate batch.
const createIndexChunkPages = 256

// indexOne inserts one tuple's key into an index. Called with e.mu held.
func (e *Engine) indexOne(meta *catalog.Index, colIdx int, tup types.Tuple, rid storage.RID) error {
	v := tup[colIdx]
	if v.IsNull() {
		return nil
	}
	switch meta.Kind {
	case sql.IndexBTree:
		return e.btrees[meta.Name].Insert(types.KeyOf(v), rid)
	case sql.IndexMTree:
		ph := e.phonemeOf(v)
		return e.mtrees[meta.Name].Insert(ph, rid)
	case sql.IndexMDI:
		ph := e.phonemeOf(v)
		return e.mdis[meta.Name].Insert(ph, rid)
	case sql.IndexQGram:
		return e.qgrams[meta.Name].Insert(e.phonemeOf(v), rid)
	default:
		return fmt.Errorf("mural: unknown index kind %v", meta.Kind)
	}
}

// phonemeOf returns the phoneme string for a value (UNITEXT uses its
// materialized phoneme; TEXT converts as English).
func (e *Engine) phonemeOf(v types.Value) string {
	switch v.Kind() {
	case types.KindUniText:
		return e.phon.ToPhoneme(v.UniText())
	default:
		return e.phon.ToPhoneme(types.Compose(v.Text(), types.LangEnglish))
	}
}

func (e *Engine) execInsert(st *statement, s *sql.Insert) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	tuples, t, err := e.evalInsertRows(st, s)
	if err != nil {
		return nil, err
	}
	h, idxs := e.heaps[s.Table], e.cat.IndexesOn(s.Table, "")
	// The statement is one atomic batch: heap insert plus every index
	// insert either all commit or all roll back.
	if err := e.beginBatch(); err != nil {
		return nil, err
	}
	var inserted int64
	for _, tup := range tuples {
		// Mid-batch abort is safe: the whole statement is one WAL batch, so
		// rollback discards every row inserted so far atomically.
		if err := st.res.Err(); err != nil {
			_ = e.rollbackBatch(s.Table)
			return nil, err
		}
		rid, err := h.Insert(types.EncodeTuple(tup))
		if err != nil {
			_ = e.rollbackBatch(s.Table)
			return nil, err
		}
		for _, ix := range idxs {
			if err := e.indexOne(ix, t.ColumnIndex(ix.Column), tup, rid); err != nil {
				_ = e.rollbackBatch(s.Table)
				return nil, err
			}
		}
		inserted++
	}
	// Group commit: e.mu is released while waiting for the fsync, so inserts
	// from concurrent sessions share one Sync instead of paying one each.
	if err := e.commitGrouped(s.Table); err != nil {
		return nil, err
	}
	if err := e.maybeCheckpointLocked(); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: inserted}, nil
}

// evalInsertRows evaluates an INSERT's rows against its table before any
// storage is touched, so a value error (bad coercion, unknown function)
// never needs a rollback. The caller holds e.mu.
func (e *Engine) evalInsertRows(st *statement, s *sql.Insert) ([]types.Tuple, *catalog.Table, error) {
	t, ok := e.cat.TableByName(s.Table)
	if !ok {
		return nil, nil, fmt.Errorf("mural: no such table %q", s.Table)
	}
	comp := &plan.Compiler{DefaultThreshold: st.set.opts.Threshold}
	ev := exec.NewEvaluator(e)
	tuples := make([]types.Tuple, 0, len(s.Rows))
	for _, row := range s.Rows {
		// Cancellation checkpoint: nothing is mutated yet, so aborting here
		// needs no rollback.
		if err := st.res.Err(); err != nil {
			return nil, nil, err
		}
		if len(row) != len(t.Columns) {
			return nil, nil, fmt.Errorf("mural: INSERT has %d values, table %q has %d columns", len(row), s.Table, len(t.Columns))
		}
		tup := make(types.Tuple, len(row))
		for i, expr := range row {
			ce, err := comp.Compile(expr)
			if err != nil {
				return nil, nil, err
			}
			v, err := ev.Eval(ce, nil)
			if err != nil {
				return nil, nil, err
			}
			v, err = coerce(v, t.Columns[i].Kind, e)
			if err != nil {
				return nil, nil, fmt.Errorf("mural: column %q: %w", t.Columns[i].Name, err)
			}
			tup[i] = v
		}
		tuples = append(tuples, tup)
	}
	return tuples, t, nil
}

// coerce adapts a literal value to the column type: integer widening,
// TEXT→UNITEXT composition (defaulting to English) with phoneme
// materialization (the paper materializes phonemes at insert time, §3.1).
func coerce(v types.Value, want types.Kind, e *Engine) (types.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	got := v.Kind()
	if got == want {
		if want == types.KindUniText {
			u := v.UniText()
			if u.Phoneme == "" {
				return types.NewUniText(e.phon.Materialize(u)), nil
			}
		}
		return v, nil
	}
	switch want {
	case types.KindFloat:
		if got == types.KindInt {
			return types.NewFloat(v.Float()), nil
		}
	case types.KindInt:
		if got == types.KindFloat && v.Float() == float64(int64(v.Float())) {
			return types.NewInt(int64(v.Float())), nil
		}
	case types.KindUniText:
		if got == types.KindText {
			return types.NewUniText(e.phon.Materialize(types.Compose(v.Text(), types.LangEnglish))), nil
		}
	case types.KindText:
		if got == types.KindUniText {
			return types.NewText(v.Text()), nil
		}
	}
	return types.Value{}, fmt.Errorf("cannot store %s in %s column", got, want)
}

// execDelete removes every row matching the predicate, maintaining all
// indexes. The heap space is tombstoned, not compacted (the engine's
// workloads are load-then-query).
func (e *Engine) execDelete(st *statement, s *sql.Delete) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.cat.TableByName(s.Table)
	if !ok {
		return nil, fmt.Errorf("mural: no such table %q", s.Table)
	}
	h, idxs := e.heaps[s.Table], e.cat.IndexesOn(s.Table, "")
	var cond plan.Expr
	if s.Where != nil {
		schema := make([]plan.ColInfo, len(t.Columns))
		for i, c := range t.Columns {
			schema[i] = plan.ColInfo{Rel: s.Table, Name: c.Name, Kind: c.Kind}
		}
		comp := &plan.Compiler{Schema: schema, DefaultThreshold: st.set.opts.Threshold}
		var err error
		cond, err = comp.Compile(s.Where)
		if err != nil {
			return nil, err
		}
	}
	ev := exec.NewEvaluator(e)
	type victim struct {
		rid storage.RID
		tup types.Tuple
	}
	var victims []victim
	it := h.Scan()
	for {
		// The victim scan is read-only; aborting it leaves nothing to undo.
		if err := st.res.Err(); err != nil {
			return nil, err
		}
		rid, rec, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		tup, _, err := types.DecodeTuple(rec)
		if err != nil {
			return nil, err
		}
		if cond != nil {
			pass, err := ev.EvalBool(cond, tup)
			if err != nil {
				return nil, err
			}
			if !pass {
				continue
			}
		}
		victims = append(victims, victim{rid: rid, tup: tup})
	}
	// All victims were collected read-only above; the mutations form one
	// atomic batch across heap and every index.
	if err := e.beginBatch(); err != nil {
		return nil, err
	}
	for _, v := range victims {
		if err := e.deleteOne(t, h, idxs, v.tup, v.rid); err != nil {
			_ = e.rollbackBatch(s.Table)
			return nil, err
		}
	}
	if err := e.commitGrouped(s.Table); err != nil {
		return nil, err
	}
	if err := e.maybeCheckpointLocked(); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: int64(len(victims))}, nil
}

// deleteOne removes one row: index entries first, the heap record last. If a
// step fails, the entries already removed for this row are re-inserted, so a
// failed statement never leaves an index entry dangling (pointing at a
// deleted heap row) or a live heap row missing entries. The compensation is
// what keeps the wal==nil configuration consistent, where rollbackBatch
// cannot page-roll-back the batch; the WAL path additionally rolls back.
func (e *Engine) deleteOne(t *catalog.Table, h *storage.Heap, idxs []*catalog.Index, tup types.Tuple, rid storage.RID) error {
	removed := make([]*catalog.Index, 0, len(idxs))
	undo := func() {
		for _, ix := range removed {
			_ = e.indexOne(ix, t.ColumnIndex(ix.Column), tup, rid)
		}
	}
	for _, ix := range idxs {
		val := tup[t.ColumnIndex(ix.Column)]
		if val.IsNull() {
			continue
		}
		if err := e.indexDeleteOne(ix, val, rid); err != nil {
			undo()
			return fmt.Errorf("mural: delete from index %q: %w", ix.Name, err)
		}
		removed = append(removed, ix)
	}
	if err := h.Delete(rid); err != nil {
		undo()
		return err
	}
	return nil
}

// indexDeleteOne removes one tuple's key from an index, honoring the test
// fault-injection hook.
func (e *Engine) indexDeleteOne(ix *catalog.Index, val types.Value, rid storage.RID) error {
	if e.failIndexDelete != nil {
		if err := e.failIndexDelete(ix.Name); err != nil {
			return err
		}
	}
	switch ix.Kind {
	case sql.IndexBTree:
		return e.btrees[ix.Name].Delete(types.KeyOf(val), rid)
	case sql.IndexMTree:
		return e.mtrees[ix.Name].Delete(e.phonemeOf(val), rid)
	case sql.IndexMDI:
		return e.mdis[ix.Name].Delete(e.phonemeOf(val), rid)
	case sql.IndexQGram:
		return e.qgrams[ix.Name].Delete(e.phonemeOf(val), rid)
	default:
		return fmt.Errorf("mural: unknown index kind %v", ix.Kind)
	}
}

func (e *Engine) execAnalyze(s *sql.Analyze) (*Result, error) {
	var tables []*catalog.Table
	if s.Table != "" {
		t, ok := e.cat.TableByName(s.Table)
		if !ok {
			return nil, fmt.Errorf("mural: no such table %q", s.Table)
		}
		tables = []*catalog.Table{t}
	} else {
		tables = e.cat.Tables()
	}
	for _, t := range tables {
		if err := e.analyzeTable(t); err != nil {
			return nil, err
		}
	}
	// Log the refreshed stats as a committed catalog snapshot; otherwise a
	// later crash replaying an older snapshot would silently revert them.
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal != nil {
		if err := e.beginBatch(); err != nil {
			return nil, err
		}
		if err := e.commitDDL(); err != nil {
			_ = e.rollbackBatch("")
			return nil, err
		}
	}
	return &Result{}, e.saveCatalog()
}

// analyzeTable gathers the §3.4.1 statistics: row/page counts plus one
// end-biased histogram per column. UNITEXT columns are summarized in
// phoneme space so Ψ selectivity estimation can match against real phoneme
// strings.
func (e *Engine) analyzeTable(t *catalog.Table) error {
	e.mu.RLock()
	h := e.heaps[t.Name]
	e.mu.RUnlock()
	if h == nil {
		return fmt.Errorf("mural: heap for %q not open", t.Name)
	}
	keys := make([][]string, len(t.Columns))
	widths := make([]int64, len(t.Columns))
	nulls := make([]int64, len(t.Columns))
	var rows int64
	it := h.Scan()
	for {
		_, rec, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		tup, _, err := types.DecodeTuple(rec)
		if err != nil {
			return err
		}
		rows++
		for i, v := range tup {
			if i >= len(t.Columns) {
				break
			}
			if v.IsNull() {
				nulls[i]++
				continue
			}
			key := histKey(e, v)
			keys[i] = append(keys[i], key)
			widths[i] += int64(len(key))
		}
	}
	st := &catalog.TableStats{
		Rows:    rows,
		Pages:   int64(h.NumPages()),
		Columns: make(map[string]*catalog.ColumnStats, len(t.Columns)),
	}
	for i, col := range t.Columns {
		cs := &catalog.ColumnStats{
			Hist: histogram.Build(keys[i], histogram.DefaultFrequentValues),
		}
		if n := int64(len(keys[i])); n > 0 {
			cs.AvgWidth = float64(widths[i]) / float64(n)
		}
		if rows > 0 {
			cs.NullFrac = float64(nulls[i]) / float64(rows)
		}
		st.Columns[col.Name] = cs
	}
	e.cat.SetStats(t.Name, st)
	return nil
}

// histKey renders a value the way ANALYZE keys histograms: UNITEXT in
// phoneme space (so Ψ selectivity matches real phoneme strings), numerics
// through the order-preserving key encoding (so the keys sort as the
// numbers do), everything else as text.
func histKey(e *Engine, v types.Value) string {
	switch v.Kind() {
	case types.KindUniText:
		return e.phon.ToPhoneme(v.UniText())
	case types.KindInt, types.KindFloat:
		// Hex keeps byte order while staying JSON-safe for catalog
		// persistence. A range interpolates on the number the key decodes
		// to (histogram.position), not on its bytes.
		return hex.EncodeToString(types.KeyOf(v))
	default:
		return v.String()
	}
}

func (e *Engine) saveCatalog() error {
	if e.cfg.Dir == "" {
		return nil
	}
	return e.cat.Save(e.cfg.Dir)
}
