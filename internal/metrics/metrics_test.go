package metrics

import (
	"strings"
	"sync"
	"testing"

	"github.com/mural-db/mural/internal/invariant"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("reqs_total") != c {
		t.Error("Counter is not idempotent get-or-create")
	}
	g := r.Gauge("open_conns")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 99, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 5125 {
		t.Errorf("count=%d sum=%d", h.Count(), h.Sum())
	}
	b := h.Buckets()
	// cumulative: le=10 -> 2, le=100 -> 4, le=1000 -> 4, +Inf -> 5
	want := []int64{2, 4, 4, 5}
	for i, bc := range b {
		if bc.Count != want[i] {
			t.Errorf("bucket %d: count=%d want %d", i, bc.Count, want[i])
		}
	}
	if b[len(b)-1].Bound != -1 {
		t.Error("last bucket must be +Inf (bound -1)")
	}

	snap := r.Snapshot()
	if snap.Histograms["lat_ns"].Count != 5 {
		t.Errorf("snapshot count = %d", snap.Histograms["lat_ns"].Count)
	}
	r.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("reset did not zero histogram")
	}
}

func TestResetPreservesIdentity(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(3)
	r.Reset()
	if c.Value() != 0 {
		t.Error("reset did not zero counter")
	}
	c.Inc()
	if r.Counter("x").Value() != 1 {
		t.Error("counter identity lost across reset")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("h", DurationBuckets)
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", got)
	}
}

// TestWritesCountsEveryUpdate: Writes counts one per update that changes a
// metric — not per unit added, not for a dropped negative counter delta, not
// for a read — and only in builds with the muralinvariants tag.
func TestWritesCountsEveryUpdate(t *testing.T) {
	r := NewRegistry()
	c, g, h := r.Counter("c_total"), r.Gauge("g"), r.Histogram("h_ns", DurationBuckets)
	before := Writes()
	c.Inc()
	c.Add(1000)
	c.Add(-1)
	g.Set(5)
	g.Add(-2)
	h.Observe(42)
	_, _, _ = c.Value(), g.Value(), h.Count()
	_ = r.Snapshot()
	want := int64(0)
	if invariant.Enabled {
		want = 5
	}
	if got := Writes() - before; got != want {
		t.Errorf("Writes moved by %d, want %d (invariant.Enabled = %v)", got, want, invariant.Enabled)
	}
}

func TestPrometheusAndJSONOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(2)
	r.Gauge("b").Set(-3)
	r.Histogram("c_ns", []int64{100}).Observe(50)

	var prom strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		"# TYPE a_total counter", "a_total 2",
		"# TYPE b gauge", "b -3",
		"# TYPE c_ns histogram", `c_ns_bucket{le="100"} 1`, `c_ns_bucket{le="+Inf"} 1`,
		"c_ns_sum 50", "c_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}

	var js strings.Builder
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"a_total": 2`, `"counters"`, `"histograms"`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("json output missing %q:\n%s", want, js.String())
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
