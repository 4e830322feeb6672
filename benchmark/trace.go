package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"time"

	"github.com/mural-db/mural/internal/metrics"
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/mural"
)

// span is one timed call into a layer. Spans of one statement share stmt;
// parent is the name of the span that caused this one ("" for a root).
type span struct {
	name, parent string
	tid, stmt    int
	start, end   time.Duration // since the trace began
}

// replayed is one statement run again in-process, layer by layer.
type replayed struct {
	parse, explain, exec time.Duration
	client               time.Duration // what the client saw for the same statement
}

// counters is a snapshot of everything the engine counts.
type counters struct {
	reg   metrics.Snapshot
	pool  storage.PoolStats
	wal   storage.WALStats
	cache mural.CacheStats
	mem   runtime.MemStats
}

func snapshot(eng *mural.Engine) counters {
	c := counters{reg: metrics.Default.Snapshot(), pool: eng.BufferStats(), wal: eng.WALStats(), cache: eng.CacheStats()}
	runtime.ReadMemStats(&c.mem)
	return c
}

func (c counters) since(b counters, name string) float64 {
	return float64(c.reg.Counters[name] - b.reg.Counters[name])
}

func hitRatio(hits, misses uint64) float64 { return ratio(float64(hits), float64(hits+misses)) }

// Shares of --seconds the traced run gives to each of its parts.
const (
	shareUntraced = 0.25
	shareTraced   = 0.30
	shareScaling  = 0.15
	shareReplay   = 0.25
)

// tracedRun measures the per-layer metrics of one workload from outside the
// engine: spans around the client calls, an in-process replay of the same
// statements split at parse / plan / execute, and differences of the
// engine's counters around the traced stretch.
func tracedRun(name string, seed int64, sc scale, seconds float64, outDir string) (outcome, error) {
	s, err := open(name, seed, sc, outDir, true)
	if err != nil {
		return outcome{}, err
	}
	w, f, m := s.w, s.f, s.out.metrics
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	part := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	s.load(0, w.warm)

	// The same load without and with spans: their difference is what the
	// tracing costs.
	plain := s.load(part(shareUntraced), 0)
	control := []float64{controlLoop()}
	before := snapshot(f.eng)
	t0, ticks0 := time.Now(), stolenTicks()
	traced := s.load(part(shareTraced), 0)
	m["host.steal_pct"] = 100 * stolenShare(stolenTicks()-ticks0, traced.wall)
	after := snapshot(f.eng)
	control = append(control, controlLoop())
	var spans []span
	var rows, reads, writes float64
	for _, x := range traced.samples {
		at := x.start.Sub(t0)
		spans = append(spans, span{"stmt", "", x.conn, x.stmt, at, at + x.done})
		if x.write {
			writes++
			spans = append(spans, span{"client.exec", "stmt", x.conn, x.stmt, at, at + x.done})
			continue
		}
		reads++
		rows += float64(x.rows)
		spans = append(spans,
			span{"client.query", "stmt", x.conn, x.stmt, at, at + x.query},
			span{"client.drain", "stmt", x.conn, x.stmt, at + x.query, at + x.done})
		m["wire.query_ms_per_stmt"] += float64(x.query) / float64(time.Millisecond)
		m["wire.drain_ms_per_stmt"] += float64(x.done-x.query) / float64(time.Millisecond)
	}
	n := float64(len(traced.samples))
	m["wire.query_ms_per_stmt"] = ratio(m["wire.query_ms_per_stmt"], reads)
	m["wire.drain_ms_per_stmt"] = ratio(m["wire.drain_ms_per_stmt"], reads)
	m["wire.rows_per_stmt"] = ratio(rows, reads)
	m["bench.samples_read"], m["bench.samples_write"] = reads, writes
	m["bench.read_p95_ms"] = percentile(traced.latencies(false), 0.95)
	m["bench.write_p95_ms"] = percentile(traced.latencies(true), 0.95)
	m["bench.trace_overhead_pct"] = 100 * (1 - ratio(traced.perSecond(), plain.perSecond()))
	m["host.control_ms"] = mean(control)

	// Counter differences over the traced stretch.
	m["server.requests_per_stmt"] = ratio(after.since(before, "mural_server_requests_total"), n)
	m["server.errors"] = after.since(before, "mural_server_errors_total")
	m["plan.cache_hit_ratio"] = hitRatio(after.cache.Plan.Hits-before.cache.Plan.Hits, after.cache.Plan.Misses-before.cache.Plan.Misses)
	psi := after.since(before, "mural_psi_evaluations_total")
	m["exec.psi_evals_per_stmt"] = ratio(psi, n)
	m["exec.psi_evals_per_row_returned"] = ratio(psi, rows)
	m["exec.omega_probes_per_stmt"] = ratio(after.since(before, "mural_omega_probes_total"), n)
	m["phonetic.g2p_conversions_per_stmt"] = ratio(after.since(before, "mural_g2p_conversions_total"), n)
	m["phonetic.g2p_cache_hit_ratio"] = hitRatio(after.cache.G2P.Hits-before.cache.G2P.Hits, after.cache.G2P.Misses-before.cache.G2P.Misses)
	m["wordnet.closure_cache_hit_ratio"] = hitRatio(after.cache.Closure.Hits-before.cache.Closure.Hits, after.cache.Closure.Misses-before.cache.Closure.Misses)
	m["wordnet.closure_misses_per_stmt"] = ratio(float64(after.cache.Closure.Misses-before.cache.Closure.Misses), n)
	pool := func(a, b uint64) float64 { return float64(a - b) }
	m["storage.pool.hit_ratio"] = hitRatio(after.pool.Hits-before.pool.Hits, after.pool.Misses-before.pool.Misses)
	m["storage.pool.misses_per_stmt"] = ratio(pool(after.pool.Misses, before.pool.Misses), n)
	m["storage.pool.evictions_per_stmt"] = ratio(pool(after.pool.Evictions, before.pool.Evictions), n)
	m["storage.pool.disk_reads_per_stmt"] = ratio(pool(after.pool.DiskReads, before.pool.DiskReads), n)
	m["storage.pool.disk_writes_per_stmt"] = ratio(pool(after.pool.DiskWrites, before.pool.DiskWrites), n)
	commits := float64(after.wal.Commits - before.wal.Commits)
	m["storage.wal.fsyncs_per_commit"] = ratio(float64(after.wal.Syncs-before.wal.Syncs), commits)
	m["storage.wal.page_images_per_commit"] = ratio(float64(after.wal.PageImages-before.wal.PageImages), commits)
	m["storage.wal.bytes_per_commit"] = ratio(after.since(before, "mural_wal_bytes_total"), commits)
	m["storage.wal.checkpoints"] = after.since(before, "mural_wal_checkpoints_total")
	m["go.alloc_kb_per_stmt"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024, n)
	m["go.allocs_per_stmt"] = ratio(float64(after.mem.Mallocs-before.mem.Mallocs), n)
	m["go.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	m["go.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6

	// The other number of connections: what a second session adds, or what
	// the lock it shares with the first one takes away.
	other := 3 - w.conns
	scaling := drive(f.conns[:other], s.streams[:other], part(shareScaling), 0, &s.fails)
	s.out.attempted += len(scaling.samples)
	if other == 2 {
		m["mural.scaling_2conn_x"] = ratio(scaling.perSecond(), plain.perSecond())
	} else {
		m["mural.scaling_2conn_x"] = ratio(plain.perSecond(), scaling.perSecond())
	}

	// In-process replay of the traced statements, split layer by layer.
	replays, ops, visits, err := replay(f.eng, w, traced.samples, part(shareReplay), t0, &spans)
	if err != nil {
		return outcome{}, err
	}
	var wireSelf, parse, explain, run, engine []float64
	for _, r := range replays {
		parse = append(parse, float64(r.parse)/float64(time.Microsecond))
		explain = append(explain, float64(r.explain-r.parse)/float64(time.Microsecond))
		run = append(run, float64(r.exec-r.explain)/float64(time.Millisecond))
		engine = append(engine, float64(r.exec)/float64(time.Millisecond))
		wireSelf = append(wireSelf, float64(r.client-r.exec)/float64(time.Millisecond))
	}
	m["sql.parse_us_per_stmt"] = mean(parse)
	m["plan.explain_us_per_stmt"] = mean(explain)
	m["exec.run_ms_per_stmt"] = mean(run)
	m["mural.engine_ms_per_stmt"] = mean(engine)
	m["wire.self_ms_per_stmt"] = mean(wireSelf)
	for op, v := range ops {
		m["exec.op."+op+"_ms"] = v
	}
	m["index.btree.node_visits_per_lookup"] = visits
	fmt.Printf("%s: client-observed mean %.3f ms = wire %.3f + parse %.3f + plan %.3f + execute %.3f ms (%d statements replayed)\n",
		name, mean(engine)+mean(wireSelf), mean(wireSelf), mean(parse)/1e3, mean(explain)/1e3, mean(run), len(replays))

	// What the devices under the engine did since it was reopened, seen
	// through its seams, against the bytes of the rows acknowledged since.
	_, walBytes, syncs := f.wal.snapshot()
	diskWrites, pageReads := f.disk.snapshot()
	user := float64(w.ackedBytes())
	m["storage.wal.bytes_per_user_byte"] = ratio(float64(walBytes), user)
	m["storage.disk_bytes_per_user_byte"] = ratio(float64(walBytes)+float64(diskWrites*storage.PageSize), user)
	fs := sortedDurations(syncs, time.Millisecond)
	m["storage.wal.fsync_ms_p50"], m["storage.wal.fsync_ms_p95"] = percentile(fs, 0.50), percentile(fs, 0.95)
	m["storage.disk.read_us_p50"] = percentile(sortedDurations(pageReads, time.Microsecond), 0.50)

	probes(s, outDir)
	m["mural.load_rows_per_s"] = ratio(float64(loadedRows(w)), f.load.Seconds())
	m["mural.analyze_s"] = f.analyze.Seconds()
	m["mural.reopen_s"] = f.reopen.Seconds()
	m["index.btree.build_s"] = f.index.Seconds()
	if err := s.finish(); err != nil {
		return outcome{}, err
	}
	m["bench.error_rate"] = ratio(float64(s.out.failed), float64(s.out.attempted))
	return s.out, writeTrace(filepath.Join(outDir, name+".trace.json"), spans)
}

func loadedRows(w *workload) int {
	n := 0
	for _, t := range w.tables {
		n += len(t.rows)
	}
	return n
}

// replayBudget bounds the statements replayed; every analyzeEvery-th one
// also runs under EXPLAIN ANALYZE for the operator times.
const (
	replayBudget = 4000
	analyzeEvery = 16
)

// nodeVisits is the engine's count of B-tree nodes visited.
var nodeVisits = metrics.Default.Counter("mural_btree_node_visits_total")

var actualRE = regexp.MustCompile(`^(\s*)(\S+).*\(actual rows=\d+ loops=(\d+) time=([^)]+)\)`)

// opNames maps EXPLAIN's operator names to the exec.op.* metrics.
var opNames = map[string]string{
	"SeqScan": "seqscan", "Filter": "filter", "Gather": "gather", "PsiJoin(NL)": "psijoin",
	"Materialize": "materialize", "IndexScan(BTree)": "indexscan", "Project": "project",
}

// replay runs the traced statements again on the same engine, in-process:
// sql.Parse alone, then EXPLAIN (parse + plan), then the statement itself
// (parse + plan + execute), so each layer's time is a difference. INSERTs
// are replayed with fresh rows of their own. It returns the mean self time of
// each operator per analysed statement and the B-tree node visits per point
// read.
func replay(eng *mural.Engine, w *workload, samples []sample, budget time.Duration, t0 time.Time, spans *[]span) ([]replayed, map[string]float64, float64, error) {
	var out []replayed
	ops := make(map[string]float64)
	analysed := 0
	write := w.writer(partReplay)
	var pointReads, visits float64
	deadline := time.Now().Add(budget)
	for i, x := range samples {
		if i == replayBudget || time.Now().After(deadline) {
			break
		}
		text := x.sql
		var ack func()
		if x.write {
			st, ok := write()
			if !ok {
				continue
			}
			text, ack = st.sql, st.acked
		}
		r := replayed{client: x.done}
		start := time.Now()
		if _, err := sql.Parse(text); err != nil {
			return nil, nil, 0, fmt.Errorf("replay parse: %w", err)
		}
		r.parse = time.Since(start)
		r.explain = r.parse
		if !x.write {
			start = time.Now()
			if _, err := eng.Exec("EXPLAIN " + text); err != nil {
				return nil, nil, 0, fmt.Errorf("replay explain: %w", err)
			}
			r.explain = time.Since(start)
		}
		point := strings.Contains(text, "WHERE id = ")
		v0 := nodeVisits.Value()
		start = time.Now()
		if _, err := eng.Exec(text); err != nil {
			return nil, nil, 0, fmt.Errorf("replay exec: %w", err)
		}
		r.exec = time.Since(start)
		if point {
			pointReads++
			visits += float64(nodeVisits.Value() - v0)
		}
		if ack != nil {
			ack()
		}
		// The three calls repeat work, so their spans are laid end to end
		// as the differences that the metrics use.
		at := start.Sub(t0)
		*spans = append(*spans,
			span{"replay", "", 100, i, at, at + r.exec},
			span{"sql.parse", "replay", 100, i, at, at + r.parse},
			span{"plan.explain", "replay", 100, i, at + r.parse, at + r.explain},
			span{"exec.run", "replay", 100, i, at + r.explain, at + r.exec})
		out = append(out, r)
		if !x.write && i%analyzeEvery == 0 {
			res, err := eng.Exec("EXPLAIN ANALYZE " + text)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("replay explain analyze: %w", err)
			}
			analysed++
			var lines []string
			for _, t := range res.Rows {
				lines = append(lines, t[0].Text())
			}
			for op, d := range operatorSelfTimes(lines) {
				ops[op] += float64(d) / float64(time.Millisecond)
			}
		}
	}
	for op := range ops {
		ops[op] /= float64(analysed)
	}
	return out, ops, ratio(visits, pointReads), nil
}

// operatorSelfTimes parses EXPLAIN ANALYZE output. An operator's printed time
// covers its children and sums its loops (one per Gather worker); its self
// time here is its time per loop minus its children's times per loop.
func operatorSelfTimes(lines []string) map[string]time.Duration {
	type node struct {
		depth int
		op    string
		per   time.Duration
		kids  time.Duration
	}
	var nodes []node
	for _, l := range lines {
		mm := actualRE.FindStringSubmatch(l)
		if mm == nil {
			continue
		}
		d, err := time.ParseDuration(mm[4])
		if err != nil {
			continue
		}
		loops := 1
		fmt.Sscanf(mm[3], "%d", &loops)
		if loops < 1 {
			loops = 1
		}
		nodes = append(nodes, node{depth: len(mm[1]) / 2, op: mm[2], per: d / time.Duration(loops)})
	}
	out := make(map[string]time.Duration)
	for i, n := range nodes {
		for j := i - 1; j >= 0; j-- {
			if nodes[j].depth == n.depth-1 {
				nodes[j].kids += n.per
				break
			}
		}
	}
	for _, n := range nodes {
		if name, ok := opNames[n.op]; ok && n.per > n.kids {
			out[name] += n.per - n.kids
		}
	}
	return out
}

// probes times single calls into the layers that a statement only reaches
// through the executor, plus the host's own speed.
func probes(s *session, outDir string) {
	w, f, m := s.w, s.f, s.out.metrics
	if len(w.phonemes) > 0 {
		const pairs = 200000
		matcher := phonetic.NewBoundedMatcher(w.phonemes[0], 2)
		hits := 0
		start := time.Now()
		for i := 0; i < pairs; i++ {
			if matcher.Match(w.phonemes[i%len(w.phonemes)]) {
				hits++
			}
		}
		m["phonetic.match_ns_per_pair"] = float64(time.Since(start).Nanoseconds()) / pairs
		_ = hits
		reg := phonetic.DefaultRegistry()
		start = time.Now()
		for _, u := range w.g2pNames {
			reg.Materialize(u)
		}
		m["phonetic.g2p_us_per_name"] = ratio(float64(time.Since(start).Microseconds()), float64(len(w.g2pNames)))
	}
	if w.net != nil {
		var ds []float64
		for i := 0; i < 20; i++ {
			start := time.Now()
			w.net.Closure(w.tcRoot)
			ds = append(ds, float64(time.Since(start).Microseconds()))
		}
		m["wordnet.closure_us_tc1k"] = median(ds)
		if took, err := closureByIndex(f.eng, w); err != nil {
			s.fails.report("taxonomy closure by B-tree", err)
		} else {
			m["index.btree.closure_ms_tc1k"] = took
		}
	}
	var pings []float64
	for i := 0; i < 500 && len(f.conns) > 0; i++ {
		start := time.Now()
		if err := f.conns[0].Ping(); err != nil {
			s.fails.report("ping", err)
			break
		}
		pings = append(pings, float64(time.Since(start).Nanoseconds())/1e3)
	}
	m["wire.ping_us"] = median(pings)
	dir := f.dir
	if dir == "" {
		dir = outDir
	}
	m["host.fsync_ms"] = fsyncProbe(dir)
}

// closureByIndex is Fig. 8's core-with-B-tree series: the closure of a
// concept with |TC| near 1000 computed against a stored taxonomy table by one
// index probe per member. The table holds the first sc.taxRows synsets, which
// are closed under "parent of" because parents are generated before children.
func closureByIndex(eng *mural.Engine, w *workload) (float64, error) {
	n := min(w.sc.taxRows, w.net.NumSynsets())
	rows := make([]string, n)
	best, bestSize := 0, 0
	size := make([]int, n)
	for id := n - 1; id >= 0; id-- {
		size[id]++
		p := w.net.Parent(mural.SynsetID(id))
		if p < 0 {
			rows[id] = fmt.Sprintf("(%d, NULL)", id)
		} else {
			rows[id] = fmt.Sprintf("(%d, %d)", id, p)
			size[p] += size[id]
		}
		if d, b := abs(size[id]-1000), abs(bestSize-1000); d < b {
			best, bestSize = id, size[id]
		}
	}
	if _, err := eng.Exec(`CREATE TABLE tax (id INT, parent INT)`); err != nil {
		return 0, err
	}
	for i := 0; i < n; i += insertBatch {
		if _, err := eng.Exec("INSERT INTO tax VALUES " + strings.Join(rows[i:min(i+insertBatch, n)], ",")); err != nil {
			return 0, err
		}
	}
	if _, err := eng.Exec(`CREATE INDEX idx_tax_parent ON tax (parent) USING BTREE`); err != nil {
		return 0, err
	}
	var ds []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		res, err := eng.ComputeClosureIndex("tax", "id", "parent", "idx_tax_parent", int64(best))
		if err != nil {
			return 0, err
		}
		if res.Size != bestSize {
			return 0, fmt.Errorf("closure of synset %d has %d members, the parent pointers say %d", best, res.Size, bestSize)
		}
		ds = append(ds, float64(time.Since(start))/float64(time.Millisecond))
	}
	return median(ds), nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// controlLoop is a fixed piece of pure Go work, an edit-distance table over
// two fixed strings. It touches none of the engine, so when it moves between
// two runs, the machine moved.
func controlLoop() float64 {
	a, b := make([]rune, 1500), make([]rune, 1500)
	for i := range a {
		a[i], b[i] = rune('a'+i*7%23), rune('a'+i*11%19)
	}
	var ds []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if levenshtein(a, b) < 0 {
			panic("unreachable")
		}
		ds = append(ds, float64(time.Since(start))/float64(time.Millisecond))
	}
	return median(ds)
}

// fsyncProbe is the median time of an 8 KiB write followed by fsync in dir.
func fsyncProbe(dir string) float64 {
	file, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0
	}
	defer os.Remove(file.Name())
	defer file.Close()
	buf := make([]byte, storage.PageSize)
	var ds []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := file.WriteAt(buf, int64(i)*storage.PageSize); err != nil {
			return 0
		}
		if err := file.Sync(); err != nil {
			return 0
		}
		ds = append(ds, float64(time.Since(start))/float64(time.Millisecond))
	}
	return median(ds)
}

// writeTrace writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto): complete events, one track per connection plus one for the
// replay.
func writeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		cat, _, _ := strings.Cut(s.name, ".")
		events[i] = event{Name: s.name, Cat: cat, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.tid, Args: map[string]any{"stmt": s.stmt, "parent": s.parent}}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
