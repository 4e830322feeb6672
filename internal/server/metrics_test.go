package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/metrics"
	"github.com/mural-db/mural/mural"
)

// TestExplainOverWire streams EXPLAIN ANALYZE output through the ordinary
// cursor protocol: the client sees the annotated plan as rows.
func TestExplainOverWire(t *testing.T) {
	_, conn := startServer(t)
	if _, err := conn.Exec(`CREATE TABLE t (id INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(`INSERT INTO t VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}
	cur, err := conn.Query(`EXPLAIN ANALYZE SELECT id FROM t WHERE id > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Cols) != 1 || cur.Cols[0] != "plan" {
		t.Fatalf("cols = %v", cur.Cols)
	}
	rows, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	var plan strings.Builder
	for _, r := range rows {
		plan.WriteString(r[0].Text())
		plan.WriteString("\n")
	}
	text := plan.String()
	if !strings.Contains(text, "SeqScan") || !strings.Contains(text, "actual rows=") {
		t.Errorf("EXPLAIN ANALYZE over wire:\n%s", text)
	}
	// The connection stays usable.
	if err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, conn := startServer(t)
	conn.Exec(`CREATE TABLE t (id INT)`)
	conn.Exec(`INSERT INTO t VALUES (1)`)
	if cur, err := conn.Query(`SELECT * FROM t`); err == nil {
		cur.All()
	}

	ms, err := StartMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	get := func(url string) (string, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", url, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	text, ctype := get(fmt.Sprintf("http://%s/metrics", ms.Addr()))
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("content type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE mural_server_requests_total counter",
		"mural_server_requests_total",
		"mural_engine_queries_total",
		"mural_server_request_latency_ns_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, text[:min(len(text), 800)])
		}
	}

	jsonBody, ctype := get(fmt.Sprintf("http://%s/metrics?format=json", ms.Addr()))
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("json content type = %q", ctype)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(jsonBody), &doc); err != nil {
		t.Fatalf("JSON output invalid: %v", err)
	}
	counters, ok := doc["counters"].(map[string]any)
	if !ok {
		t.Fatalf("no counters object in %v", doc)
	}
	if v, ok := counters["mural_server_requests_total"].(float64); !ok || v < 1 {
		t.Errorf("requests counter in JSON = %v", counters["mural_server_requests_total"])
	}
}

// TestMetricNames holds every series the engine registers to the metrics
// namespace: mural_-prefixed snake_case, _total on counters and only on
// counters, and a _ns or _bytes unit on histograms. This package imports
// every instrumented one, and an on-disk Open registers the recovery gauges.
func TestMetricNames(t *testing.T) {
	eng, err := mural.Open(mural.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^mural_[a-z0-9]+(_[a-z0-9]+)*$`)
	snap := metrics.Default.Snapshot()
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s %q is not mural_-prefixed snake_case", kind, n)
		}
		if total := strings.HasSuffix(n, "_total"); total != (kind == "counter") {
			t.Errorf("%s %q: _total is for counters and only for counters", kind, n)
		}
		if kind == "histogram" && !strings.HasSuffix(n, "_ns") && !strings.HasSuffix(n, "_bytes") {
			t.Errorf("histogram %q carries no _ns or _bytes unit", n)
		}
	}
	for n := range snap.Counters {
		check("counter", n)
	}
	for n := range snap.Gauges {
		check("gauge", n)
	}
	for n := range snap.Histograms {
		check("histogram", n)
	}
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Fatalf("registry holds %d counters and %d histograms; expected the engine's", len(snap.Counters), len(snap.Histograms))
	}
}
