package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/mural-db/mural/internal/client"
	"github.com/mural-db/mural/internal/types"
)

// A run sets its fixture up until quietSetUps of the set-ups were quiet (see
// quietSteal), at least minSetUps and at most maxSetUps times, and no more
// once setUpBudget is spent. setup_s is the median of the quiet ones, or the
// least disturbed one when none was quiet; the last fixture is the one
// measured.
const (
	quietSetUps = 3
	minSetUps   = 3
	maxSetUps   = 7
	setUpBudget = 6 * time.Second
)

// sample is one statement as a client saw it.
type sample struct {
	stmt        int // ordinal on its connection within the segment
	conn        int
	sql         string
	write       bool
	rows        int
	start       time.Time
	query, done time.Duration // since start: reply to Query/Exec, last row decoded
}

// segment is a stretch of closed-loop load: every connection sends its next
// statement when the reply to the previous one is complete.
type segment struct {
	wall    time.Duration
	samples []sample
	failed  int
}

// latencies returns the reads' or the writes' latencies in ms, ascending.
func (s *segment) latencies(write bool) []float64 {
	var out []time.Duration
	for _, x := range s.samples {
		if x.write == write {
			out = append(out, x.done)
		}
	}
	return sortedDurations(out, time.Millisecond)
}

func (s *segment) perSecond() float64 {
	return ratio(float64(len(s.samples)-s.failed), s.wall.Seconds())
}

// failures prints the first few wrong or failed statements and counts all.
type failures struct {
	mu sync.Mutex
	n  int
}

func (f *failures) report(sql string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n++; f.n <= 5 {
		fmt.Fprintf(os.Stderr, "FAILED: %v\n  statement: %.200s\n", err, sql)
	}
}

// issue sends one statement and waits for its whole reply.
func issue(c *client.Conn, s stmt) (rows []types.Tuple, query, done time.Duration, err error) {
	start := time.Now()
	if s.rows > 0 {
		n, err := c.Exec(s.sql)
		done = time.Since(start)
		if err == nil && n != s.rows {
			err = fmt.Errorf("INSERT acknowledged %d rows, want %d", n, s.rows)
		}
		return nil, done, done, err
	}
	cur, err := c.Query(s.sql)
	query = time.Since(start)
	if err != nil {
		return nil, query, query, err
	}
	rows, err = cur.All()
	return rows, query, time.Since(start), err
}

// drive runs the streams, one per connection, until the duration is over or,
// when count > 0, until each has issued count statements.
func drive(conns []*client.Conn, streams []func() stmt, d time.Duration, count int, fails *failures) segment {
	per := make([]segment, len(streams))
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(d)
	for ci := range streams {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			seg := &per[ci]
			for i := 0; ; i++ {
				if count > 0 && i == count || count == 0 && !time.Now().Before(deadline) {
					return
				}
				s := streams[ci]()
				start := time.Now()
				rows, query, done, err := issue(conns[ci], s)
				if err == nil && s.check != nil {
					err = s.check(rows)
				}
				if err != nil {
					seg.failed++
					fails.report(s.sql, err)
				} else if s.acked != nil {
					s.acked()
				}
				seg.samples = append(seg.samples, sample{stmt: i, conn: ci, sql: s.sql, write: s.rows > 0, rows: len(rows), start: start, query: query, done: done})
			}
		}(ci)
	}
	wg.Wait()
	out := segment{wall: time.Since(begin)}
	for _, p := range per {
		out.samples = append(out.samples, p.samples...)
		out.failed += p.failed
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// outcome is what one run of one workload reports.
type outcome struct {
	attempted, failed int
	correct           bool
	metrics           map[string]float64
}

// session holds what the untraced and the traced run share: the prepared
// workload, the fixture that was set up last, and the statement streams.
type session struct {
	w       *workload
	f       *fixture
	streams []func() stmt
	fails   failures
	setup   float64 // setup_s
	out     outcome
}

// open prepares the workload, checks it against the golden file, and sets
// the fixture up several times.
func open(name string, seed int64, sc scale, outDir string, timed bool) (*session, error) {
	build, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	s := &session{w: build(seed, sc)}
	if err := checkGolden(s.w); err != nil {
		return nil, err
	}
	var quiet []float64
	calmest, began := math.Inf(1), time.Now()
	for i := 0; i < maxSetUps && len(quiet) < quietSetUps && (i < minSetUps || time.Since(began) < setUpBudget); i++ {
		if s.f != nil {
			if err := s.f.close(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(outDir, "data", fmt.Sprintf("%s-%d-%d", name, os.Getpid(), i))
		ticks0 := stolenTicks()
		f, err := setUp(s.w, dir, timed)
		if err != nil {
			return nil, fmt.Errorf("set-up of %s: %w", name, err)
		}
		s.f = f
		stolen := stolenShare(stolenTicks()-ticks0, f.total)
		if stolen <= quietSteal {
			quiet = append(quiet, f.total.Seconds())
		}
		if stolen < calmest {
			calmest, s.setup = stolen, f.total.Seconds()
		}
	}
	if len(quiet) > 0 {
		s.setup = median(quiet)
	}
	for c := 0; c < 2; c++ {
		s.streams = append(s.streams, s.w.stream(s.w, c))
	}
	s.out.metrics = make(map[string]float64)
	return s, nil
}

// load drives the workload's own number of connections.
func (s *session) load(d time.Duration, count int) segment {
	n := s.w.conns
	seg := drive(s.f.conns[:n], s.streams[:n], d, count, &s.fails)
	s.out.attempted += len(seg.samples)
	return seg
}

// finish checks the row count, plays the crash on an on-disk workload, and
// tears the fixture down.
func (s *session) finish() error {
	w, f := s.w, s.f
	res, err := f.eng.Exec("SELECT count(*) FROM " + w.sink)
	if err != nil {
		return err
	}
	if got, want := res.Rows[0][0].Int(), int64(w.sinkRows+w.ackedRows()); got != want {
		s.fails.report("SELECT count(*) FROM "+w.sink, fmt.Errorf("got %d, want %d loaded + %d acknowledged", got, w.sinkRows, w.ackedRows()))
	}
	if w.disk {
		if err := f.hangUp(); err != nil {
			return err
		}
		lost, recovery, err := crashCheck(f, w)
		if err != nil {
			return err
		}
		if lost > 0 {
			s.fails.report("crash check", fmt.Errorf("%d of %d acknowledged INSERTs are gone after the crash", lost, w.ackedRows()))
			s.fails.n += lost - 1
		}
		s.out.attempted += w.ackedRows()
		s.out.metrics["storage.wal.lost_acked_writes"] = float64(lost)
		s.out.metrics["mural.recovery_s"] = recovery.Seconds()
	}
	if w.exhausted {
		fmt.Fprintf(os.Stderr, "warning: %s used up its %d prepared INSERTs; later writes became reads\n", w.name, len(w.inserts))
	}
	s.out.failed = s.fails.n
	s.out.correct = s.out.failed == 0
	return f.close()
}

// The timed window runs as slices of a quarter of a second, and the metrics
// come from the quiet ones. The sandbox this benchmark was sized on is a
// virtual machine whose hypervisor takes the CPUs away for stretches of
// seconds to minutes (a quarter to a half of them, by /proc/stat's steal
// counter), which halves the throughput of those stretches whatever the
// engine does. A slice is quiet when at most quietSteal of the machine's CPU
// time was stolen during it. Slices run until --seconds' worth of them were
// quiet or maxSlices times that many have run. The quiet ones are kept, and
// when they make up less than half of --seconds, the least stolen ones up to
// that half. Whether a slice is kept depends on the counter alone, never on
// how the engine did in it.
const (
	sliceLength = 250 * time.Millisecond
	quietSteal  = 0.05
	maxSlices   = 2
)

type slice struct {
	seg    segment
	cpu    time.Duration
	stolen float64 // share of the machine's CPU time
}

// stolenTicks reads the steal counter of /proc/stat, in ticks of 10 ms summed
// over the CPUs; 0 where there is no such counter.
func stolenTicks() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v
}

func stolenShare(ticks float64, wall time.Duration) float64 {
	return ratio(ticks/100, wall.Seconds()*float64(runtime.NumCPU()))
}

// window runs the timed window and returns the kept slices merged and their
// CPU time.
func (s *session) window(seconds float64) (kept segment, cpu time.Duration) {
	length := min(sliceLength, time.Duration(seconds*float64(time.Second)))
	want := int(math.Ceil(seconds / length.Seconds()))
	var all []slice
	quiet := 0
	for quiet < want && len(all) < maxSlices*want {
		cpu0, ticks0 := cpuTime(), stolenTicks()
		seg := s.load(length, 0)
		sl := slice{seg: seg, cpu: cpuTime() - cpu0, stolen: stolenShare(stolenTicks()-ticks0, seg.wall)}
		if sl.stolen <= quietSteal {
			quiet++
		}
		all = append(all, sl)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].stolen < all[j].stolen })
	keep := max(quiet, (want+1)/2)
	for _, sl := range all[:keep] {
		kept.wall += sl.seg.wall
		kept.samples = append(kept.samples, sl.seg.samples...)
		kept.failed += sl.seg.failed
		cpu += sl.cpu
	}
	fmt.Printf("%s: kept %d of %d slices; stolen CPU %.1f%% at most in those kept, %.1f%% in the worst\n",
		s.w.name, keep, len(all), 100*all[keep-1].stolen, 100*all[len(all)-1].stolen)
	return kept, cpu
}

// endToEndRun measures the end-to-end metrics of one workload: set-up, a
// warm-up pass, one timed window with every layer probe off, then the checks.
func endToEndRun(name string, seed int64, sc scale, seconds float64, outDir string) (outcome, error) {
	s, err := open(name, seed, sc, outDir, false)
	if err != nil {
		return outcome{}, err
	}
	m := s.out.metrics
	s.load(0, s.w.warm)
	win, cpu := s.window(seconds)
	// Twice, so that what the first collection moved to the victim caches of
	// the engine's sync.Pools is freed too.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	reads, writes := win.latencies(false), win.latencies(true)
	m["setup_s"] = s.setup
	m["stmts_per_s"] = win.perSecond()
	m["read_p50_ms"] = percentile(reads, 0.50)
	m["write_p50_ms"] = percentile(writes, 0.50)
	m["cpu_ms_per_stmt"] = ratio(float64(cpu)/float64(time.Millisecond), float64(len(win.samples)))
	m["heap_live_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	if err := s.finish(); err != nil {
		return outcome{}, err
	}
	fmt.Printf("%s: %d reads and %d writes timed; %d statements attempted, %d failed\n", name, len(reads), len(writes), s.out.attempted, s.out.failed)
	return s.out, nil
}

// sortedDurations returns ds ascending, in the given unit.
func sortedDurations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}
