package mural

import (
	"encoding/hex"
	"errors"
	"fmt"

	"github.com/mural-db/mural/internal/catalog"
	"github.com/mural-db/mural/internal/exec"
	"github.com/mural-db/mural/internal/histogram"
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
	if err := e.pool.BeginBatch(); err != nil {
		undo()
		return nil, err
	}
	_, keyBytes := keyedColumn(t)
	h, err := storage.OpenHeap(e.pool, file, keyBytes)
	if err != nil {
		_ = e.rollbackBatch("")
		undo()
		return nil, err
	}
	e.heaps[s.Name] = h
	if err := e.commitDDL(); err != nil {
		undo()
		return nil, err
	}
	return &Result{}, nil
}

// keyedColumn is the column of t whose filter keys its heap's slots carry,
// and their width (types.KeyedColumn): which one is decided by the schema
// alone.
func keyedColumn(t *catalog.Table) (col, keyBytes int) {
	kinds := make([]types.Kind, len(t.Columns))
	for i, c := range t.Columns {
		kinds[i] = c.Kind
	}
	return types.KeyedColumn(kinds)
}

// commitDDL writes the catalog into its pages in the open batch and commits
// the batch, so the schema change and its page mutations become durable
// atomically. A commit that fails has rolled the batch back.
func (e *Engine) commitDDL() error {
	if err := e.cat.Store(e.pool); err != nil {
		return errors.Join(err, e.pool.AbortBatch())
	}
	return e.commitBatch()
}

func (e *Engine) execDropTable(s *sql.DropTable) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.cat.TableByName(s.Name)
	if !ok {
		return nil, fmt.Errorf("mural: no such table %q", s.Name)
	}
	stats := e.cat.Stats(s.Name) // DropTable forgets them
	droppedIdx, err := e.cat.DropTable(s.Name)
	if err != nil {
		return nil, err
	}
	// Commit the catalog change before releasing anything: if the commit
	// fails, the drop is undone in memory and nothing was touched.
	if err = e.pool.BeginBatch(); err == nil {
		err = e.commitDDL()
	}
	if err != nil {
		_ = e.cat.AddTable(t)
		for _, ix := range droppedIdx {
			_ = e.cat.AddIndex(ix)
		}
		e.cat.SetStats(s.Name, stats)
		return nil, err
	}
	// A concurrent session's sealed batch may still hold pages of this
	// table's files; let those group commits finish before detaching.
	e.pool.WaitSealedDrained()
	// The heap is unreachable now; wait out fetches that pinned it while it
	// was still visible before detaching its storage (see pinSet).
	delete(e.heaps, s.Name)
	e.pins.wait(s.Name) //lint:lock-held-io pinned fetches never reacquire e.mu, so draining under the write lock cannot deadlock
	e.releaseFile(t.File)
	for _, ix := range droppedIdx {
		e.dropIndex(ix.Name)
	}
	return &Result{}, nil
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
	err := e.pool.BeginBatch()
	if err == nil {
		err = e.commitDDL()
	}
	if err != nil {
		_ = e.cat.AddIndex(ix)
		return nil, err
	}
	e.pool.WaitSealedDrained()
	e.dropIndex(s.Name)
	return &Result{}, nil
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
	if s.Kind != sql.IndexBTree && t.Columns[colIdx].Kind != types.KindUniText {
		return nil, fmt.Errorf("mural: %s indexes require a UNITEXT column", s.Kind)
	}
	if _, dup := e.cat.IndexByName(s.Name); dup {
		return nil, fmt.Errorf("mural: index %q already exists", s.Name)
	}
	if err := e.pool.BeginBatch(); err != nil {
		return nil, err
	}
	// The catalog entry is added only after a complete backfill, so a crash
	// or error mid-build leaves at worst an orphan file that recovery (or
	// the abort below) removes — never a half-built index the planner could
	// choose. The heap is not mutated, so any committed chunk of the build
	// is consistent.
	meta := &catalog.Index{Name: s.Name, Table: s.Table, Column: s.Column, Kind: s.Kind}
	fail := func(err error) (*Result, error) {
		_ = e.pool.AbortBatch()
		if meta.File != 0 {
			e.releaseFile(meta.File)
		}
		return nil, err
	}
	ix, err := e.openIndex(meta, true)
	if err != nil {
		return fail(err)
	}
	if err := e.backfill(ix); err != nil {
		return fail(err)
	}
	if err := e.cat.AddIndex(meta); err != nil {
		return fail(err)
	}
	if err := e.commitDDL(); err != nil {
		_ = e.cat.RemoveIndex(meta.Name)
		return fail(err)
	}
	e.indexes[s.Name] = ix
	return &Result{}, nil
}

// createIndexChunkPages bounds how many dirty pages a CREATE INDEX backfill
// accumulates before committing an intermediate batch; a pool of fewer than
// four times as many frames lowers the bound to a quarter of its frames.
const createIndexChunkPages = 256

func (e *Engine) execInsert(st *statement, s *sql.Insert) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	tuples, err := e.evalInsertRows(st, s)
	if err != nil {
		return nil, err
	}
	h, idxs := e.heaps[s.Table], e.indexesOn(s.Table)
	t, _ := e.cat.TableByName(s.Table) // evalInsertRows found it
	keyed, _ := keyedColumn(t)
	// The statement is one atomic batch: heap insert plus every index
	// insert either all commit or all roll back.
	if err := e.pool.BeginBatch(); err != nil {
		return nil, err
	}
	var inserted int64
	var keys []byte
	for _, tup := range tuples {
		// Mid-batch abort is safe: the whole statement is one WAL batch, so
		// rollback discards every row inserted so far atomically.
		if err := st.res.Err(); err != nil {
			_ = e.rollbackBatch(s.Table)
			return nil, err
		}
		keys = types.AppendSlotKeys(keys[:0], tup, keyed, e.net.LabelOf(tup, keyed))
		rid, err := h.Insert(types.EncodeTuple(tup), keys)
		if err != nil {
			_ = e.rollbackBatch(s.Table)
			return nil, err
		}
		for _, ix := range idxs {
			if err := ix.insert(tup, rid); err != nil {
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
func (e *Engine) evalInsertRows(st *statement, s *sql.Insert) ([]types.Tuple, error) {
	t, ok := e.cat.TableByName(s.Table)
	if !ok {
		return nil, fmt.Errorf("mural: no such table %q", s.Table)
	}
	comp := &plan.Compiler{DefaultThreshold: st.set.opts.Threshold}
	ev := exec.NewEvaluator(e)
	tuples := make([]types.Tuple, 0, len(s.Rows))
	for _, row := range s.Rows {
		// Cancellation checkpoint: nothing is mutated yet, so aborting here
		// needs no rollback.
		if err := st.res.Err(); err != nil {
			return nil, err
		}
		if len(row) != len(t.Columns) {
			return nil, fmt.Errorf("mural: INSERT has %d values, table %q has %d columns", len(row), s.Table, len(t.Columns))
		}
		tup := make(types.Tuple, len(row))
		for i, expr := range row {
			ce, err := comp.Compile(expr)
			if err != nil {
				return nil, err
			}
			v, err := ev.Eval(ce, nil)
			if err != nil {
				return nil, err
			}
			v, err = coerce(v, t.Columns[i].Kind, e)
			if err != nil {
				return nil, fmt.Errorf("mural: column %q: %w", t.Columns[i].Name, err)
			}
			tup[i] = v
		}
		tuples = append(tuples, tup)
	}
	return tuples, nil
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
	h, idxs := e.heaps[s.Table], e.indexesOn(s.Table)
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
	err := eachRow(h, func(rid storage.RID, tup types.Tuple) error {
		// The victim scan is read-only; aborting it leaves nothing to undo.
		if err := st.res.Err(); err != nil {
			return err
		}
		if cond != nil {
			if pass, err := ev.EvalBool(cond, tup); err != nil || !pass {
				return err
			}
		}
		victims = append(victims, victim{rid: rid, tup: tup})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// All victims were collected read-only above; the mutations form one
	// atomic batch across heap and every index.
	if err := e.pool.BeginBatch(); err != nil {
		return nil, err
	}
	for _, v := range victims {
		if err := e.deleteOne(h, idxs, v.tup, v.rid); err != nil {
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

// deleteOne removes one row: index entries first, the heap record last. A
// step that fails leaves the rest undone; the caller's rollbackBatch then
// puts back every page the statement changed.
func (e *Engine) deleteOne(h *storage.Heap, idxs []*index, tup types.Tuple, rid storage.RID) error {
	for _, ix := range idxs {
		var err error
		if e.failIndexDelete != nil {
			err = e.failIndexDelete(ix.meta.Name)
		}
		if err == nil {
			err = ix.delete(tup, rid)
		}
		if err != nil {
			return fmt.Errorf("mural: delete from index %q: %w", ix.meta.Name, err)
		}
	}
	return h.Delete(rid)
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
	stats := make([]*catalog.TableStats, len(tables))
	for i, t := range tables {
		st, err := e.analyzeTable(t)
		if err != nil {
			return nil, err
		}
		stats[i] = st
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.pool.BeginBatch(); err != nil {
		return nil, err
	}
	// swap installs each table's new statistics and keeps the ones it
	// replaced, so a failed commit swaps them back (none for a table that
	// was never analyzed).
	swap := func() {
		for i, t := range tables {
			stats[i] = e.cat.SetStats(t.Name, stats[i])
		}
	}
	swap()
	if err := e.commitDDL(); err != nil {
		swap()
		return nil, err
	}
	return &Result{}, nil
}

// analyzeTable gathers the §3.4.1 statistics: row/page counts plus one
// end-biased histogram per column. UNITEXT columns are summarized in
// phoneme space so Ψ selectivity estimation can match against real phoneme
// strings.
func (e *Engine) analyzeTable(t *catalog.Table) (*catalog.TableStats, error) {
	e.mu.RLock()
	h := e.heaps[t.Name]
	e.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("mural: heap for %q not open", t.Name)
	}
	keys := make([][]string, len(t.Columns))
	widths := make([]int64, len(t.Columns))
	nulls := make([]int64, len(t.Columns))
	var rows int64
	err := eachRow(h, func(_ storage.RID, tup types.Tuple) error {
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
		return nil
	})
	if err != nil {
		return nil, err
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
	return st, nil
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
