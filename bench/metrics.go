package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json is
// generated from these tables (hennbench -manifest), so the contract and the
// program cannot drift apart.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	bound float64
	// moves names, for a per-layer metric, the end-to-end metric and
	// workload it is expected to move (README.md has the same table).
	moves string
}

// endToEnd are the metrics a user of the served system sees. Every workload
// reports all of them with --trace 0. Each bound is three times the widest
// ten-seed spread the metric showed on the reference box, rounded up to 0.05
// and capped at the contract's 0.25 (README.md has the spreads).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "infer_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "register_mb", unit: "MB", better: "lower", bound: 0.001},
	{name: "precision_bits", unit: "bit", better: "higher", bound: 0.15},
	{name: "alloc_mb_per_infer", unit: "MB", better: "lower", bound: 0.10},
	{name: "cpu_s_per_infer", unit: "s", better: "lower", bound: 0.25},
}

// perLayer are the single-layer metrics, named <package>.<metric>. Every
// workload reports all of them with --trace 1.
var perLayer = []metricDef{
	{name: "ring.mulmod_ns", unit: "ns", better: "lower", moves: "infer_p50_ms, cpu_s_per_infer on every workload"},
	{name: "ring.mulmod_shoup_ns", unit: "ns", better: "lower", moves: "infer_p50_ms, cpu_s_per_infer on every workload"},
	{name: "ring.ntt_us", unit: "us", better: "lower", moves: "infer_p50_ms, cpu_s_per_infer on every workload"},
	{name: "ring.intt_us", unit: "us", better: "lower", moves: "infer_p50_ms, cpu_s_per_infer on every workload"},
	{name: "ring.mul_coeffs_add_us", unit: "us", better: "lower", moves: "infer_p50_ms, cpu_s_per_infer on every workload"},
	{name: "ring.ntt_fan_us", unit: "us", better: "lower", moves: "infer_p50_ms on shared_budget only; no move on linear_heavy"},

	{name: "ckks.rotate_ms", unit: "ms", better: "lower", moves: "infer_p50_ms, throughput_rps on linear_heavy, shared_budget; little on paf_heavy"},
	{name: "ckks.decompose_hoisted_ms", unit: "ms", better: "lower", moves: "infer_p50_ms, throughput_rps on linear_heavy, shared_budget"},
	{name: "ckks.rotate_hoisted_ms", unit: "ms", better: "lower", moves: "infer_p50_ms, throughput_rps on linear_heavy, shared_budget"},
	{name: "ckks.mul_plain_us", unit: "us", better: "lower", moves: "infer_p50_ms, throughput_rps on linear_heavy, shared_budget"},
	{name: "ckks.mul_relin_rescale_ms", unit: "ms", better: "lower", moves: "infer_p50_ms, throughput_rps on paf_heavy"},
	{name: "ckks.rescale_ms", unit: "ms", better: "lower", moves: "infer_p50_ms, throughput_rps on paf_heavy"},
	{name: "ckks.rotate_alloc_kb", unit: "KB", better: "lower", moves: "alloc_mb_per_infer on linear_heavy, shared_budget"},
	{name: "ckks.mul_relin_alloc_kb", unit: "KB", better: "lower", moves: "alloc_mb_per_infer on paf_heavy"},
	{name: "ckks.encode_us", unit: "us", better: "lower", moves: "client share of infer_p50_ms, every workload"},
	{name: "ckks.encrypt_ms", unit: "ms", better: "lower", moves: "client share of infer_p50_ms, every workload"},
	{name: "ckks.decrypt_decode_ms", unit: "ms", better: "lower", moves: "client share of infer_p50_ms, every workload"},
	{name: "ckks.ct_marshal_us", unit: "us", better: "lower", moves: "wire share of infer_p50_ms, every workload"},
	{name: "ckks.ct_unmarshal_us", unit: "us", better: "lower", moves: "wire share of infer_p50_ms, every workload"},
	{name: "ckks.ct_kb", unit: "KB", better: "lower", moves: "wire share of infer_p50_ms, every workload"},
	{name: "ckks.keygen_ms", unit: "ms", better: "lower", moves: "setup_s on every workload; server.session_setup_p50_s on session_churn"},
	{name: "ckks.evalkeys_marshal_ms", unit: "ms", better: "lower", moves: "setup_s on every workload; server.session_setup_p50_s on session_churn"},
	{name: "ckks.evalkeys_unmarshal_ms", unit: "ms", better: "lower", moves: "setup_s on every workload; server.session_setup_p50_s on session_churn"},
	{name: "ckks.evalkeys_mb", unit: "MB", better: "lower", moves: "register_mb, setup_s on every workload"},

	{name: "hepoly.relu_ms", unit: "ms", better: "lower", moves: "infer_p50_ms on paf_heavy"},
	{name: "hepoly.relu_ct_mults", unit: "count", better: "lower", moves: "infer_p50_ms on paf_heavy (exact count)"},
	{name: "hepoly.relu_levels", unit: "count", better: "lower", moves: "infer_p50_ms, register_mb on paf_heavy (exact count)"},

	{name: "henn.linear_ms", unit: "ms", better: "lower", moves: "infer_p50_ms on linear_heavy, session_churn, shared_budget"},
	{name: "henn.activation_ms", unit: "ms", better: "lower", moves: "infer_p50_ms on paf_heavy"},
	{name: "henn.unit_ms", unit: "ms", better: "lower", moves: "infer_p50_ms, throughput_rps on every workload"},
	{name: "henn.unit_alloc_mb", unit: "MB", better: "lower", moves: "alloc_mb_per_infer on every workload"},
	{name: "henn.unit_allocs", unit: "count", better: "lower", moves: "alloc_mb_per_infer on every workload"},
	{name: "henn.unit_rotations", unit: "count", better: "lower", moves: "infer_p50_ms on linear_heavy (exact count)"},
	{name: "henn.unit_key_switches", unit: "count", better: "lower", moves: "infer_p50_ms on every workload (exact count)"},
	{name: "henn.unit_rescales", unit: "count", better: "lower", moves: "infer_p50_ms on paf_heavy (exact count)"},
	{name: "henn.share_rotation", unit: "ratio", better: "higher", moves: "validity: >= 0.60 on linear_heavy, small on paf_heavy"},
	{name: "henn.share_paf", unit: "ratio", better: "higher", moves: "validity: >= 0.60 on paf_heavy, small on linear_heavy"},
	{name: "henn.unit_model_ntts", unit: "count", better: "lower", moves: "henn.unit_ms (computed, not a hardware counter)"},
	{name: "henn.unit_model_mulmods", unit: "count", better: "lower", moves: "henn.unit_ms (computed, not a hardware counter)"},
	{name: "henn.unit_model_mb_moved", unit: "MB", better: "lower", moves: "henn.unit_ms (computed, not a hardware counter)"},
	{name: "henn.model_residual_ratio", unit: "ratio", better: "lower", moves: "measured henn.unit_ms over the op-count model's time; where the next optimisation lives"},

	{name: "parallel.pool_handoff_us", unit: "us", better: "lower", moves: "throughput_rps on shared_budget"},
	{name: "parallel.for_speedup", unit: "ratio", better: "higher", moves: "throughput_rps on linear_heavy"},

	{name: "registry.deploy_ms", unit: "ms", better: "lower", moves: "setup_s on every workload"},
	{name: "registry.bundle_unmarshal_ms", unit: "ms", better: "lower", moves: "setup_s on every workload"},
	{name: "registry.bundle_kb", unit: "KB", better: "lower", moves: "setup_s on every workload"},

	{name: "server.infer_p50_ms", unit: "ms", better: "lower", moves: "the traced pass's own client-observed median, base of the span shares"},
	{name: "server.infer_p95_ms", unit: "ms", better: "lower", moves: "tail of the traced pass's client-observed latency; too few samples per run to carry a bound"},
	{name: "server.queue_wait_p50_ms", unit: "ms", better: "lower", moves: "infer_p50_ms on shared_budget (about one unit); about 0 on linear_heavy"},
	{name: "server.dispatch_p50_ms", unit: "ms", better: "lower", moves: "infer_p50_ms on shared_budget"},
	{name: "server.unit_p50_ms", unit: "ms", better: "lower", moves: "infer_p50_ms on every workload"},
	{name: "server.http_overhead_p50_ms", unit: "ms", better: "lower", moves: "infer_p50_ms on every workload"},
	{name: "server.client_crypto_p50_ms", unit: "ms", better: "lower", moves: "infer_p50_ms on every workload"},
	{name: "server.session_setup_p50_s", unit: "s", better: "lower", moves: "setup_s on every workload; on session_churn, registration beside a neighbour's inference"},
	{name: "server.register_post_p50_ms", unit: "ms", better: "lower", moves: "setup_s on every workload; server.session_setup_p50_s on session_churn"},
	{name: "server.session_close_ms", unit: "ms", better: "lower", moves: "setup_s on every workload; server.session_setup_p50_s on session_churn"},
	{name: "server.peak_in_flight", unit: "count", better: "higher", moves: "throughput_rps: 2 on linear_heavy, 1 on shared_budget"},
	{name: "server.units_run", unit: "count", better: "higher", moves: "throughput_rps on every workload"},
	{name: "server.units_aborted", unit: "count", better: "lower", moves: "failed requests on every workload"},
	{name: "server.peak_rss_mb", unit: "MB", better: "lower", moves: "infer_p95_ms on session_churn"},
	{name: "server.gc_pause_ms", unit: "ms", better: "lower", moves: "infer_p95_ms on session_churn"},
	{name: "server.gc_cycles", unit: "count", better: "lower", moves: "infer_p95_ms on session_churn"},

	{name: "telemetry.trace_overhead_ratio", unit: "ratio", better: "higher", moves: "traced over untraced throughput; what tracing costs"},
	{name: "telemetry.span_coverage", unit: "ratio", better: "higher", moves: "share of client-observed latency the spans cover"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report fills a result's metrics from measured values, insisting that the
// values are exactly the declared set and all finite.
func report(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is measured but not declared", name)
			}
		}
	}
	return out, nil
}

// runSeconds is how long one run measures under the driver.
const runSeconds = 15

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
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
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
