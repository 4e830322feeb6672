package main

import "encoding/json"

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the engine sees, measured with the
// layer instrumentation off. Every workload reports every one of them; the
// bounds come from the run-to-run spreads recorded in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"stmts_per_s", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_stmt", "ms", "lower", 0.25},
	{"heap_live_mb", "MiB", "lower", 0.10},
}

// perLayer are the metrics of single layers, taken on the traced run. The
// prefix is the module of this repository the number is about.
var perLayer = []metricDef{
	{"wire.self_ms_per_stmt", "ms", "lower", 0},
	{"wire.query_ms_per_stmt", "ms", "lower", 0},
	{"wire.drain_ms_per_stmt", "ms", "lower", 0},
	{"wire.rows_per_stmt", "count", "lower", 0},
	{"wire.ping_us", "us", "lower", 0},
	{"server.requests_per_stmt", "count", "lower", 0},
	{"server.errors", "count", "lower", 0},
	{"sql.parse_us_per_stmt", "us", "lower", 0},
	{"plan.explain_us_per_stmt", "us", "lower", 0},
	{"plan.cache_hit_ratio", "ratio", "higher", 0},
	{"exec.run_ms_per_stmt", "ms", "lower", 0},
	{"exec.op.seqscan_ms", "ms", "lower", 0},
	{"exec.op.filter_ms", "ms", "lower", 0},
	{"exec.op.gather_ms", "ms", "lower", 0},
	{"exec.op.psijoin_ms", "ms", "lower", 0},
	{"exec.op.materialize_ms", "ms", "lower", 0},
	{"exec.op.indexscan_ms", "ms", "lower", 0},
	{"exec.op.project_ms", "ms", "lower", 0},
	{"exec.psi_evals_per_stmt", "count", "lower", 0},
	{"exec.omega_probes_per_stmt", "count", "lower", 0},
	{"exec.psi_evals_per_row_returned", "count", "lower", 0},
	{"phonetic.match_ns_per_pair", "ns", "lower", 0},
	{"phonetic.g2p_us_per_name", "us", "lower", 0},
	{"phonetic.g2p_conversions_per_stmt", "count", "lower", 0},
	{"phonetic.g2p_cache_hit_ratio", "ratio", "higher", 0},
	{"wordnet.closure_us_tc1k", "us", "lower", 0},
	{"wordnet.closure_cache_hit_ratio", "ratio", "higher", 0},
	{"wordnet.closure_misses_per_stmt", "count", "lower", 0},
	{"index.btree.node_visits_per_lookup", "count", "lower", 0},
	{"index.btree.build_s", "s", "lower", 0},
	{"index.btree.closure_ms_tc1k", "ms", "lower", 0},
	{"storage.pool.hit_ratio", "ratio", "higher", 0},
	{"storage.pool.misses_per_stmt", "count", "lower", 0},
	{"storage.pool.evictions_per_stmt", "count", "lower", 0},
	{"storage.pool.disk_reads_per_stmt", "count", "lower", 0},
	{"storage.pool.disk_writes_per_stmt", "count", "lower", 0},
	{"storage.disk.read_us_p50", "us", "lower", 0},
	{"storage.wal.fsyncs_per_commit", "ratio", "lower", 0},
	{"storage.wal.page_images_per_commit", "count", "lower", 0},
	{"storage.wal.bytes_per_commit", "bytes", "lower", 0},
	{"storage.wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"storage.wal.fsync_ms_p50", "ms", "lower", 0},
	{"storage.wal.fsync_ms_p95", "ms", "lower", 0},
	{"storage.wal.checkpoints", "count", "lower", 0},
	{"storage.wal.lost_acked_writes", "count", "lower", 0},
	{"storage.disk_bytes_per_user_byte", "ratio", "lower", 0},
	{"mural.engine_ms_per_stmt", "ms", "lower", 0},
	{"mural.load_rows_per_s", "1/s", "higher", 0},
	{"mural.analyze_s", "s", "lower", 0},
	{"mural.reopen_s", "s", "lower", 0},
	{"mural.recovery_s", "s", "lower", 0},
	{"mural.scaling_2conn_x", "ratio", "higher", 0},
	{"go.alloc_kb_per_stmt", "KiB", "lower", 0},
	{"go.allocs_per_stmt", "count", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"host.control_ms", "ms", "lower", 0},
	{"host.fsync_ms", "ms", "lower", 0},
	{"host.steal_pct", "%", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.samples_read", "count", "higher", 0},
	{"bench.samples_write", "count", "higher", 0},
	{"bench.read_p95_ms", "ms", "lower", 0},
	{"bench.write_p95_ms", "ms", "lower", 0},
	{"bench.error_rate", "ratio", "lower", 0},
}

func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// workloadWhy is the one-line reason each workload exists; README.md has the
// long form.
var workloadWhy = []struct{ Name, Why string }{
	{"psi_scan", "1 closed-loop session; LEXEQUAL threshold-2 scans of 100,000 in-memory names over 64 query names: exec fused kernel, phonetic and Gather do the work; sql, plan and WAL almost none"},
	{"psi_join", "1 session; LEXEQUAL nested-loop joins of 2 probe rows against 25,000 names: the row-engine PsiJoin over Materialize over Gather, which bypasses the fused scan kernels psi_scan uses"},
	{"omega_scan", "1 session; SEMEQUAL scans of 50,000 documents under a pinned 111,223-synset taxonomy, a quarter on concepts not yet in the closure cache: wordnet does the work and phonetic none"},
	{"oltp_mixed", "2 sessions on disk with WAL and fsync per commit group: 60% point reads, 10% LEXEQUAL scans larger than the 96-frame pool, 30% durable single-row INSERTs; crash check at the end"},
}

// manifest renders BENCHMARK.json from the tables above, so the file at the
// root of the repository and the program cannot disagree.
func manifest() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloadWhy {
		m.Workloads = append(m.Workloads, wl(w))
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
