package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// smoke runs the program the way the driver does, at a size that finishes in
// about a second, and returns the parsed last line of its output.
func smoke(t *testing.T, workload string, trace, logN string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace,
		"-logn", logN, "-warmup", "0.2", "-setups", "1", "-outdir", t.TempDir(),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace %s: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(raw) != 4 {
		t.Errorf("result has %d keys, want correct, attempted, failed, metrics", len(raw))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d: %s", workload, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return res
}

func wantMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("run emitted %d metrics, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("declared metric %s was not emitted", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("%s emitted in %q, declared in %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestSmoke runs every workload untraced and the two layer-validity
// workloads traced: every declared metric is emitted and nothing else, the
// exact counts repeat, and no goroutine survives. paf_heavy is traced at the
// benchmark's own ring degree, where its validity share is asserted.
func TestSmoke(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, w := range workloads {
		wantMetrics(t, smoke(t, w.name, "0", "9"), endToEnd)
	}
	exact := []string{
		"henn.unit_rotations", "henn.unit_key_switches", "henn.unit_rescales",
		"hepoly.relu_ct_mults", "hepoly.relu_levels", "henn.unit_model_ntts",
		"henn.unit_model_mulmods", "ckks.evalkeys_mb", "ckks.ct_kb", "registry.bundle_kb",
	}
	wantMetrics(t, smoke(t, "paf_heavy", "1", "10"), perLayer)
	a, b := smoke(t, "linear_heavy", "1", "9"), smoke(t, "linear_heavy", "1", "9")
	wantMetrics(t, a, perLayer)
	for _, m := range exact {
		if a.Metrics[m].Value != b.Metrics[m].Value {
			t.Errorf("%s read %v then %v on the same seed", m, a.Metrics[m].Value, b.Metrics[m].Value)
		}
	}
	if err := waitGoroutines(baseline); err != nil {
		t.Error(err)
	}
}

// digest fingerprints everything the server will be fed: the marshaled model
// bundle, every request vector and the key seeds.
func (in *inputs) digest() (string, error) {
	h := sha256.New()
	bundle, err := in.model.MarshalBinary()
	if err != nil {
		return "", err
	}
	h.Write(bundle)
	var buf [8]byte
	for _, xs := range in.x {
		for _, x := range xs {
			for _, v := range x {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	for _, s := range append(append([]int64(nil), in.keySeeds...), in.churnSeed) {
		binary.LittleEndian.PutUint64(buf[:], uint64(s))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func TestInputsFollowSeed(t *testing.T) {
	digest := func(seed int64) string {
		in, err := generate(workloads[0], seed, 9)
		if err != nil {
			t.Fatal(err)
		}
		d, err := in.digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if digest(3) != digest(3) {
		t.Error("the same seed generated different inputs")
	}
	if digest(3) == digest(4) {
		t.Error("different seeds generated the same inputs")
	}
}

// TestManifest pins BENCHMARK.json to the tables the program reports from,
// and the tables to the driver's naming contract.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `hennbench -manifest`")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] || len(w.why) > 200 {
			t.Errorf("workload %q breaks the naming contract", w.name)
		}
		seen[w.name] = true
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q (%q) breaks the naming contract", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q has direction %q", d.name, d.better)
		}
		seen[d.name] = true
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %q has bound %g", d.name, d.bound)
		}
	}
	if !hasSetup || len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Error("manifest breaks the driver's size contract")
	}
}

func TestQuartileMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartile(xs, 1), quartile(xs, 3); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(p50, rps []float64) []runRecord {
		var runs []runRecord
		for i := range p50 {
			for _, w := range workloads {
				m := map[string]metricValue{}
				for _, d := range endToEnd {
					m[d.name] = metricValue{Value: 1, Unit: d.unit}
				}
				m["infer_p50_ms"] = metricValue{Value: p50[i], Unit: "ms"}
				m["throughput_rps"] = metricValue{Value: rps[i], Unit: "1/s"}
				runs = append(runs, runRecord{Workload: w.name, Seed: int64(i), Result: result{Correct: true, Attempted: 1, Metrics: m}})
			}
		}
		return runs
	}
	steady := []float64{100, 100.5, 99.5, 100.2, 99.8}
	base := set(steady, steady)
	var out bytes.Buffer
	if code := compareRuns(base, base, &out); code != 0 || strings.Contains(out.String(), "regressed") {
		t.Errorf("a set against itself: exit %d\n%s", code, out.String())
	}
	out.Reset()
	slow := set([]float64{140, 140.5, 139.5, 140.2, 139.8}, []float64{60, 60.5, 59.5, 60.2, 59.8})
	if code := compareRuns(base, slow, &out); code != 1 || strings.Count(out.String(), "regressed") != 2*len(workloads) {
		t.Errorf("40%% slower and 40%% less throughput: exit %d\n%s", code, out.String())
	}
	out.Reset()
	noisy := set([]float64{80, 100, 120, 140, 90}, steady)
	if code := compareRuns(base, noisy, &out); code != 0 || strings.Count(out.String(), "unresolved") != len(workloads) {
		t.Errorf("spread wider than the bound: exit %d\n%s", code, out.String())
	}
}
