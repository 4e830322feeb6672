// Package metrics is the engine-wide observability substrate: a lock-cheap
// registry of named counters, gauges and bounded histograms that the hot
// paths (buffer pool, WAL, index searches, phoneme conversion, server
// dispatch) update with single atomic operations. The registry renders
// itself as Prometheus text exposition format or JSON for the server's
// /metrics endpoint, and supports snapshot/reset so benchmark harnesses can
// measure counter deltas across a workload.
//
// Design constraints, in order:
//
//  1. An update on a hot path is one atomic add — no map lookups, no locks.
//     Instrumented packages resolve their metrics once into package-level
//     vars at init.
//  2. Registration is idempotent (get-or-create), so any package can name a
//     metric without coordinating ownership.
//  3. Reading is approximate-consistent: a snapshot taken under load may mix
//     updates from in-flight operations, which is fine for monitoring.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/mural-db/mural/internal/invariant"
)

// writes counts metric updates in builds with the muralinvariants tag, and
// is never touched otherwise. A process-wide metric is one cache line that
// every core running a loop shares, so per-row code must not write one; a
// counter's value cannot show how many writes built it, and this can.
var writes atomic.Int64

func noteWrite() {
	if invariant.Enabled {
		writes.Add(1)
	}
}

// Writes returns how many counter, gauge and histogram updates the process
// has made: always 0 without the muralinvariants build tag.
func Writes() int64 { return writes.Load() }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	noteWrite()
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		noteWrite()
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an atomic instantaneous value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) {
	noteWrite()
	g.v.Store(n)
}

// Add moves the gauge by a delta.
func (g *Gauge) Add(n int64) {
	noteWrite()
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) reset() { g.v.Store(0) }

// Histogram is a bounded histogram over int64 observations (typically
// nanoseconds or byte counts). Bucket bounds are inclusive upper limits;
// observations above the last bound land in the implicit +Inf bucket.
// Observe is a pair of atomic adds; there is no per-observation allocation.
type Histogram struct {
	bounds []int64 // sorted inclusive upper bounds
	counts []atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	noteWrite()
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Buckets returns (bound, cumulative count) pairs; the final pair has
// bound -1, meaning +Inf.
func (h *Histogram) Buckets() []BucketCount {
	out := make([]BucketCount, 0, len(h.bounds)+1)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		out = append(out, BucketCount{Bound: b, Count: cum})
	}
	cum += h.counts[len(h.bounds)].Load()
	out = append(out, BucketCount{Bound: -1, Count: cum})
	return out
}

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
	h.count.Store(0)
}

// BucketCount is one cumulative histogram bucket. Bound -1 means +Inf.
type BucketCount struct {
	Bound int64
	Count int64
}

// DurationBuckets are nanosecond bounds suited to query/request latencies:
// 100µs to ~10s, roughly tripling.
var DurationBuckets = []int64{
	100_000, 300_000, 1_000_000, 3_000_000, 10_000_000, 30_000_000,
	100_000_000, 300_000_000, 1_000_000_000, 3_000_000_000, 10_000_000_000,
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry (or use Default).
type Registry struct {
	mu     sync.RWMutex
	cnt    map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		cnt:    make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the engine's hot paths publish into.
var Default = NewRegistry()

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.cnt[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.cnt[name]; ok {
		return c
	}
	c = &Counter{}
	r.cnt[name] = c
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// if needed. Bounds are ignored when the histogram already exists.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = newHistogram(bounds)
	r.hists[name] = h
	return h
}

// Snapshot is a point-in-time copy of every metric's value.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// HistSnapshot is one histogram's snapshot.
type HistSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets"`
}

// Snapshot captures every metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.cnt)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.cnt {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistSnapshot{Count: h.Count(), Sum: h.Sum(), Buckets: h.Buckets()}
	}
	return s
}

// Reset zeroes every metric (benchmark harnesses measure deltas with it).
// Metric identities are preserved: pointers held by instrumented packages
// stay valid.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.cnt {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// sortedKeys returns map keys in stable order for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus renders the registry in Prometheus text exposition format
// (version 0.0.4): counters as "<name> <value>", gauges likewise, histograms
// as the conventional _bucket/_sum/_count triple.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	for _, name := range sortedKeys(snap.Counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, snap.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, snap.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			le := "+Inf"
			if b.Bound >= 0 {
				le = fmt.Sprintf("%d", b.Bound)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
