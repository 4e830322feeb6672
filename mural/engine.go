package mural

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mural-db/mural/internal/catalog"
	"github.com/mural-db/mural/internal/exec"
	"github.com/mural-db/mural/internal/obs"
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// Config parameterizes Open.
type Config struct {
	// Dir is the database directory; empty means fully in-memory.
	Dir string
	// BufferPages sizes the shared buffer pool (default 4096 frames =
	// 32 MiB).
	BufferPages int
	// WordNet supplies the taxonomy pinned in memory for the Ω operator
	// (§4.3), fixed for the engine's life. Nil disables SEMEQUAL. The first
	// Open that supplies one pins it to the database (its Fingerprint, in
	// the catalog), because every stored UNITEXT value keeps its Ω label
	// under it: a later Open with another fails with ErrTaxonomy.
	WordNet *wordnet.Net
	// Phonetics overrides the converter registry (default: English, Hindi,
	// Tamil, Kannada, French).
	Phonetics *phonetic.Registry
	// CheckpointBytes is the WAL size that triggers an automatic
	// checkpoint after a commit (default 4 MiB).
	CheckpointBytes int64
	// DiskWrap, when set, wraps every data-file disk the engine opens.
	// Fault-injection harnesses use it to kill or tear writes mid-workload.
	DiskWrap func(name string, d storage.Disk) storage.Disk
	// WALWrap, when set, wraps the write-ahead log device the same way.
	WALWrap func(f storage.LogFile) storage.LogFile
	// SlowQueryThreshold enables the slow-query log: statements that take
	// at least this long are written to SlowQueryLog as one JSON line each.
	// Zero disables logging.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query lines (required for the threshold to
	// have any effect; os.Stderr is a reasonable choice).
	SlowQueryLog io.Writer
	// Workers caps intra-query parallelism: eligible plan subtrees run
	// under a Gather exchange over up to this many goroutines. Zero
	// defaults to GOMAXPROCS; 1 disables parallel plans. `SET workers = N`
	// changes it for one session.
	Workers int
	// CommitDelay is ignored: the WAL's group-commit leader syncs at once,
	// and commits group behind the fsync already in flight.
	//
	// Deprecated: a leader that waited for followers slept at least a
	// millisecond whatever the setting, because Go rounds any timed wait
	// under 1 ms up to 1 ms, so the window cost every commit as much as the
	// flush it was meant to share. The field stays only so that existing
	// callers still compile.
	CommitDelay time.Duration
	// QueryTimeout is the default per-statement deadline; a statement
	// exceeding it fails with ErrQueryTimeout. Zero means no deadline.
	// `SET statement_timeout = <ms>` changes it for one session (0 disables).
	QueryTimeout time.Duration
	// MaxQueryMem caps the bytes one statement may hold in materializing
	// operators (hash-join builds, sorts, aggregates, Gather merge buffers,
	// compiled Ω operands); crossing it fails the statement with
	// ErrMemoryLimit. Zero means unlimited. `SET max_query_mem = <bytes>`
	// changes it for one session (0 disables).
	MaxQueryMem int64
	// MaxConcurrentQueries bounds statements running at once; excess
	// arrivals fail immediately with ErrAdmissionRejected. Zero means
	// unbounded.
	MaxConcurrentQueries int
	// StmtStatsEntries bounds the statement statistics store behind SHOW
	// STATEMENTS and the /statements HTTP endpoint (default 256
	// fingerprints; negative disables collection).
	StmtStatsEntries int
	// FeedbackEntries bounds the planner's observed-selectivity feedback
	// sketch (default 1024 cells; negative disables feedback, so the
	// planner always costs from static histograms).
	FeedbackEntries int
	// TraceSink receives exported query span trees; nil disables tracing.
	TraceSink io.Writer
	// TraceFormat selects the trace encoding: "jsonl" (default, one JSON
	// object per span per line) or "chrome" (trace-event JSON for
	// chrome://tracing and Perfetto).
	TraceFormat string
	// TraceSampleRate is the fraction of untagged statements to trace
	// (systematic 1-in-N sampling, deterministic). Statements carrying a
	// client trace ID always trace; zero samples nothing else.
	TraceSampleRate float64
}

// Engine is one open database. It is safe for concurrent use; DDL and
// inserts serialize against queries coarsely.
type Engine struct {
	cfg  Config
	pool *storage.Pool
	cat  *catalog.Catalog
	phon *phonetic.Registry
	// wal is the write-ahead log (nil for in-memory databases); recovery
	// reports what replay did at Open.
	wal      *storage.WAL
	recovery RecoveryStats
	// slowMu serializes slow-query log writes.
	slowMu sync.Mutex
	// plans and g2p are the engine-lifetime shared caches: parsed SELECT
	// plans keyed by SQL text + catalog version, and the run-time G2P
	// conversions of every session.
	plans *planCache
	g2p   *phonetic.SharedCache
	// inflight counts statements currently executing (admission control).
	inflight atomic.Int64
	// stmts, fb and traces are the cross-query observability state (each
	// nil when disabled): fingerprint-keyed statement aggregates, the
	// planner's observed-selectivity feedback sketch, and the sampled span
	// exporter. traceSeq numbers engine-generated trace IDs for sampled
	// statements that arrived untagged; fbTick schedules the periodic
	// re-measurement of established feedback cells.
	stmts    *obs.StmtStats
	fb       *obs.Feedback
	traces   *obs.TraceWriter
	traceSeq atomic.Uint64
	fbTick   atomic.Uint64
	// sess is the engine's own session, the one Exec and Query run on.
	sess *Session
	// pins tracks index handles checked out by concurrent searches so DROP
	// can wait for them instead of racing (env.go / pins.go).
	pins pinSet
	// failIndexDelete, when non-nil, is a test-only fault-injection hook: it
	// runs before each per-index delete during DELETE maintenance and a
	// non-nil return aborts that delete (ddl.go).
	failIndexDelete func(index string) error

	// net is the taxonomy and sem the planner's estimator over it, set at
	// Open and never changed, so they are read without mu.
	net *wordnet.Net
	sem plan.SemEstimator

	mu      sync.RWMutex
	heaps   map[string]*storage.Heap
	indexes map[string]*index
	disks   map[storage.FileID]storage.Disk
	// operators holds user-registered binary predicates, callable from SQL
	// as name(a, b) — the analog of PostgreSQL's operator addition
	// facility the paper's prototype built on (§4.2).
	operators map[string]func(a, b Value) (bool, error)
}

// ErrFormat reports a data directory written in another on-disk format than
// this build's (check with errors.Is). Open refuses such a directory before
// it recovers, loads or attaches anything; a directory written before the
// format was numbered is refused too.
var ErrFormat = storage.ErrFormat

// ErrTaxonomy reports an Open whose Config.WordNet is not the taxonomy the
// database pins (check with errors.Is): the Ω labels its rows store were
// computed under that one, so Ω would answer differently. An Open with no
// taxonomy is allowed; it leaves SEMEQUAL disabled.
var ErrTaxonomy = errors.New("mural: the database pins another taxonomy")

// Open opens (or creates) a database.
func Open(cfg Config) (*Engine, error) {
	if cfg.BufferPages <= 0 {
		cfg.BufferPages = 4096
	}
	if cfg.Phonetics == nil {
		cfg.Phonetics = phonetic.DefaultRegistry()
	}
	var wal *storage.WAL
	var recStats RecoveryStats
	var err error
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("mural: create dir: %w", err)
		}
		// Crash recovery: replay committed WAL batches into the data files,
		// the catalog's among them, before loading anything.
		if wal, recStats, err = openWALWithRecovery(&cfg); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		cfg:       cfg,
		pool:      storage.NewPool(cfg.BufferPages),
		phon:      cfg.Phonetics,
		wal:       wal,
		recovery:  recStats,
		heaps:     make(map[string]*storage.Heap),
		indexes:   make(map[string]*index),
		disks:     make(map[storage.FileID]storage.Disk),
		operators: make(map[string]func(a, b Value) (bool, error)),
		plans:     newPlanCache(),
		g2p:       phonetic.NewSharedCache(cfg.Phonetics, phonetic.DefaultSharedEntries),
	}
	e.sess = e.Session()
	if cfg.StmtStatsEntries >= 0 {
		n := cfg.StmtStatsEntries
		if n == 0 {
			n = defaultStmtStatsEntries
		}
		e.stmts = obs.NewStmtStats(n)
	}
	if cfg.FeedbackEntries >= 0 {
		n := cfg.FeedbackEntries
		if n == 0 {
			n = defaultFeedbackEntries
		}
		e.fb = obs.NewFeedback(n, 1)
	}
	if cfg.TraceSink != nil {
		format := cfg.TraceFormat
		if format == "" {
			format = obs.FormatJSONL
		}
		e.traces = obs.NewTraceWriter(cfg.TraceSink, format, cfg.TraceSampleRate)
	}
	if wal != nil {
		e.pool.SetWAL(wal)
	}
	if cfg.WordNet != nil {
		e.net, e.sem = cfg.WordNet, &semEstimator{net: cfg.WordNet}
	}
	// fail releases everything Open has acquired so far — the WAL (already
	// recovered and truncated, so closing loses nothing) and every attached
	// data-file descriptor. Without it, an error in the reopen loops below
	// leaked the WAL file and all previously opened disks.
	fail := func(err error) (*Engine, error) {
		for _, d := range e.disks {
			_ = d.Close()
		}
		if wal != nil {
			_ = wal.Close()
		}
		return nil, err
	}
	// Read the catalog through the pool, then reopen its tables and indexes.
	if err := e.attachFile(catalog.File); err != nil {
		return fail(err)
	}
	if e.cat, err = catalog.Load(e.pool); err != nil {
		return fail(err)
	}
	if err := e.pinTaxonomy(); err != nil {
		return fail(err)
	}
	for _, t := range e.cat.Tables() {
		if err := e.attachFile(t.File); err != nil {
			return fail(err)
		}
		_, keyBytes := keyedColumn(t)
		h, err := storage.OpenHeap(e.pool, t.File, keyBytes)
		if err != nil {
			return fail(err)
		}
		e.heaps[t.Name] = h
	}
	for _, ix := range e.cat.Indexes() {
		if err := e.loadIndex(ix); err != nil {
			return fail(err)
		}
	}
	if wal != nil {
		// Uncommitted DDL may have left data files that nothing opened
		// above references; their ids will be reused.
		removed, err := e.removeOrphanFiles()
		if err != nil {
			return fail(err)
		}
		e.recovery.OrphansRemoved = removed
		publishRecoveryStats(e.recovery)
	}
	return e, nil
}

// pinTaxonomy checks the engine's taxonomy against the one the catalog pins:
// the same one passes, another fails with ErrTaxonomy, and the first one
// supplied to a database that pins none is pinned, its fingerprint committed
// with the catalog before any row can be labelled under it.
func (e *Engine) pinTaxonomy() error {
	if e.net == nil {
		return nil
	}
	fp := e.net.Fingerprint()
	switch have := e.cat.Taxonomy(); {
	case have == fp:
		return nil
	case have != 0:
		return fmt.Errorf("%w: it pins fingerprint %016x, Config.WordNet is %016x", ErrTaxonomy, have, fp)
	}
	if err := e.pool.BeginBatch(); err != nil {
		return err
	}
	e.cat.SetTaxonomy(fp)
	if err := e.commitDDL(); err != nil {
		e.cat.SetTaxonomy(0)
		return err
	}
	return nil
}

// WALStats snapshots the write-ahead log counters (zero when no WAL).
// Syncs falls below Commits only when commits find an fsync already in
// flight and group behind it; on a device whose fsync is nearly free they
// rarely do, and the two stay close.
func (e *Engine) WALStats() storage.WALStats {
	e.mu.RLock()
	wal := e.wal
	e.mu.RUnlock()
	if wal == nil {
		return storage.WALStats{}
	}
	return wal.Stats()
}

// attachFile creates/opens the disk for a file id and attaches it.
func (e *Engine) attachFile(id storage.FileID) error {
	if _, ok := e.disks[id]; ok {
		return nil
	}
	var d storage.Disk
	if e.cfg.Dir == "" {
		d = storage.NewMemDisk()
	} else {
		fd, err := storage.OpenFileDisk(dataFilePath(e.cfg.Dir, id))
		if err != nil {
			return err
		}
		d = fd
	}
	if e.cfg.DiskWrap != nil {
		d = e.cfg.DiskWrap(fmt.Sprintf("file_%d", id), d)
	}
	e.disks[id] = d
	e.pool.AttachDisk(id, d)
	return nil
}

// WordNet returns the pinned taxonomy (nil when none is loaded); it
// implements exec.Env.
func (e *Engine) WordNet() *wordnet.Net { return e.net }

// Close checkpoints (flushing every dirty page, the catalog's among them,
// and truncating the WAL) and closes every file. A database closed cleanly
// reopens without any replay work.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	firstErr := e.checkpointLocked()
	for id, d := range e.disks {
		if err := e.pool.DetachDisk(id); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := d.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.disks = map[storage.FileID]storage.Disk{}
	if e.wal != nil {
		if err := e.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		e.wal = nil
	}
	return firstErr
}

// BufferStats exposes buffer pool counters (used by the benchmark harness).
func (e *Engine) BufferStats() storage.PoolStats { return e.pool.Stats() }

// ResetBufferStats zeroes the pool counters.
func (e *Engine) ResetBufferStats() { e.pool.ResetStats() }

// semEstimator adapts a wordnet.Net to the planner's SemEstimator (§3.4.2).
type semEstimator struct{ net *wordnet.Net }

func (s *semEstimator) ClosureFrac(word string, lang types.LangID) float64 {
	syns := s.net.SynsetsOf(lang, word)
	if len(syns) == 0 {
		return -1
	}
	max := 0
	for _, id := range syns {
		if sz := s.net.ClosureSize(id); sz > max {
			max = sz
		}
	}
	return float64(max) / float64(s.net.NumSynsets())
}

func (s *semEstimator) AvgClosureFrac() float64 {
	// Mean closure size equals mean(depth)+1 over a tree, the h̄-based
	// estimate of §3.4.2.
	n := s.net.NumSynsets()
	if n == 0 {
		return 0
	}
	return (s.net.AvgDepth() + 1) / float64(n)
}

func (s *semEstimator) TaxonomySize() int { return s.net.NumSynsets() }

// Result is a fully materialized statement result.
type Result struct {
	// Cols are the output column names (SELECT only).
	Cols []string
	// Rows are the output tuples (SELECT only).
	Rows []Tuple
	// RowsAffected counts inserted rows for INSERT.
	RowsAffected int64
	// Plan is the EXPLAIN rendering when the statement was EXPLAIN, and the
	// chosen plan for SELECT.
	Plan string
	// PlanCost is the optimizer's predicted cost for SELECT/EXPLAIN.
	PlanCost float64
	// Elapsed is the executor wall time for SELECT.
	Elapsed time.Duration
	// Stats carries executor counters.
	Stats exec.RunStats
}

// MustExec runs a statement and panics on error; examples and tests use it
// for setup.
func (e *Engine) MustExec(q string) *Result {
	r, err := e.Exec(q)
	if err != nil {
		panic(fmt.Sprintf("mural: %s: %v", q, err))
	}
	return r
}

// Exec runs one statement on the engine's own session (Session.ExecContext).
func (e *Engine) Exec(q string) (*Result, error) { return e.sess.ExecContext(context.Background(), q) }

// ExecContext is Session.ExecContext on the engine's own session.
func (e *Engine) ExecContext(ctx context.Context, q string) (*Result, error) {
	return e.sess.ExecContext(ctx, q)
}

// Rows is a statement's result as a stream. A SELECT streams from the
// running plan and holds its admission slot, deadline and memory budget
// until Close; every other statement has already finished when its Rows is
// returned — one with output (EXPLAIN, SHOW) streams the materialized lines,
// one without has no Cols and reports RowsAffected.
type Rows struct {
	Cols         []string
	RowsAffected int64
	// result is the materialized outcome of a statement that is not a
	// streaming SELECT (what ExecContext returns for it).
	result *Result
	st     statement
	// streamed/eof/err track what the consumer actually saw, for finish.
	streamed int64
	eof      bool
	err      error
}

// Next returns the next row.
func (r *Rows) Next() (Tuple, bool, error) {
	if r.st.cursor == nil { // a statement without output
		return nil, false, nil
	}
	t, ok, err := r.st.cursor.Next()
	switch {
	case ok:
		r.streamed++
	case err == nil:
		r.eof = true
	default:
		r.err = err
	}
	return t, ok, err
}

// Close releases the cursor and finishes the statement.
func (r *Rows) Close() error {
	var err error
	if r.st.cursor != nil {
		err = r.st.cursor.Close()
	}
	r.st.finish(r.streamed, r.eof, r.err)
	return err
}

// Query runs one statement on the engine's own session (Session.QueryContext).
func (e *Engine) Query(q string) (*Rows, error) { return e.sess.QueryContext(context.Background(), q) }

// QueryContext is Session.QueryContext on the engine's own session.
func (e *Engine) QueryContext(ctx context.Context, q string) (*Rows, error) {
	return e.sess.QueryContext(ctx, q)
}

// dispatch is the one switch from a parsed statement to the code that runs
// it. A SELECT leaves its running cursor in st and returns no Result; every
// other statement runs to completion here.
func (e *Engine) dispatch(st *statement, stmt sql.Statement) (*Result, error) {
	if err := st.res.Err(); err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	// DDL-class statements invalidate the shared caches on success: the
	// plan cache's catalog-version keys already stop matching, and the G2P
	// cache is purged so no statement observes pre-DDL state.
	case *sql.CreateTable:
		return e.ddlDone(e.execCreateTable(s))
	case *sql.DropTable:
		return e.ddlDone(e.execDropTable(s))
	case *sql.CreateIndex:
		return e.ddlDone(e.execCreateIndex(s))
	case *sql.DropIndex:
		return e.ddlDone(e.execDropIndex(s))
	case *sql.Insert:
		return e.execInsert(st, s)
	case *sql.Delete:
		return e.execDelete(st, s)
	case *sql.Analyze:
		return e.ddlDone(e.execAnalyze(s))
	case *sql.Set:
		// A setting belongs to the session and purges nothing (see planKey).
		if err := st.sess.apply(s.Name, s.Value); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.Show:
		if strings.EqualFold(s.Name, "statements") {
			return e.showStatements(), nil
		}
		def, err := lookupSetting(s.Name)
		if err != nil {
			return nil, err
		}
		return &Result{Cols: []string{s.Name}, Rows: []Tuple{{types.NewText(def.show(st.set))}}}, nil
	case *sql.Explain:
		return e.execExplain(st, s)
	case *sql.Select:
		node, err := e.planSelectCached(st, s)
		if err != nil {
			return nil, err
		}
		return nil, st.run(node, false)
	default:
		return nil, fmt.Errorf("mural: unsupported statement %T", stmt)
	}
}

// planner assembles a Planner under one session's settings.
func (e *Engine) planner(set *settings) *plan.Planner {
	pl := &plan.Planner{Cat: e.cat, Phon: e.phon, Sem: e.sem, Pages: e.TablePages, Opts: set.opts}
	// Explicit nil check: assigning a nil *obs.Feedback directly would make
	// the interface non-nil and panic inside the estimator.
	if e.fb != nil {
		pl.Feedback = e.fb
	}
	return pl
}

// planSelectCached serves the plan for a SELECT from the shared plan cache
// when the exact SQL text was planned under the same settings and catalog
// version; otherwise it plans and caches. Cached plans are shared across
// concurrent executions — the executor never mutates a plan tree.
func (e *Engine) planSelectCached(st *statement, sel *sql.Select) (*plan.Node, error) {
	key := planCacheKey{sql: st.text, opts: st.set.planKey, version: e.cat.Version(), fbgen: e.feedbackGen()}
	if node, ok := e.plans.get(key); ok {
		return node, nil
	}
	node, err := e.planner(st.set).Plan(sel)
	if err != nil {
		return nil, err
	}
	e.plans.put(key, node)
	return node, nil
}

// execExplain renders EXPLAIN. Under ANALYZE the plan also runs, through the
// statement's one run with a timed collector, and the drain's measurements
// are rendered next to the estimates.
func (e *Engine) execExplain(st *statement, s *sql.Explain) (*Result, error) {
	node, err := e.planner(st.set).Plan(s.Stmt)
	if err != nil {
		return nil, err
	}
	res := &Result{PlanCost: node.EstCost, Cols: []string{"plan"}}
	if s.Analyze {
		if err := st.run(node, true); err != nil {
			return nil, err
		}
		rows, err := st.cursor.All()
		if err != nil {
			return nil, err
		}
		res.Elapsed = time.Since(st.start) - st.planDur
		res.Stats = *st.cursor.Stats
		res.Plan = plan.FormatAnalyze(node, st.es.Actual)
		res.Plan += fmt.Sprintf("Actual: rows=%d elapsed=%s index_pages=%d psi_evals=%d omega_probes=%d\n",
			len(rows), res.Elapsed, res.Stats.IndexPages, res.Stats.PsiEvaluations, res.Stats.OmegaProbes)
		cs := e.CacheStats()
		res.Plan += fmt.Sprintf("Caches: g2p=%d/%d plan=%d/%d (hits/misses, engine lifetime)\n",
			cs.G2P.Hits, cs.G2P.Misses, cs.Plan.Hits, cs.Plan.Misses)
		res.Plan += fmt.Sprintf("Memory: peak=%d bytes accounted\n", st.res.PeakBytes())
	} else {
		res.Plan = plan.Format(node)
	}
	for _, line := range strings.Split(strings.TrimRight(res.Plan, "\n"), "\n") {
		res.Rows = append(res.Rows, Tuple{types.NewText(line)})
	}
	return res, nil
}

// RegisterOperator installs a binary predicate under the given lowercase
// name, callable from SQL as name(a, b). It mirrors PostgreSQL's operator
// addition facility (§4.2), binary-only like it; settings are a fixed
// built-in set, so a third operand has no way in. Registering a name twice
// replaces the previous function; built-in function names are rejected.
func (e *Engine) RegisterOperator(name string, fn func(a, b Value) (bool, error)) error {
	name = strings.ToLower(name)
	switch name {
	case "count", "sum", "avg", "min", "max", "unitext", "text", "lang", "phoneme":
		return fmt.Errorf("mural: %q is a built-in function", name)
	}
	if fn == nil {
		return fmt.Errorf("mural: nil operator function")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.operators[name] = fn
	return nil
}

// CustomOperator implements exec.Env.
func (e *Engine) CustomOperator(name string) func(a, b types.Value) (bool, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.operators[name]
}

// Catalog exposes the metadata store (tables, indexes, stats);
// the shell and tools use it for introspection.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }
