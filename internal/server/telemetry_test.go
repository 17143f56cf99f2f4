package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/registry"
	"github.com/efficientfhe/smartpaf/internal/telemetry"
)

// inferOnce registers a session against the test server and runs one traced
// inference, returning the client, session and trace id.
func inferOnce(t *testing.T, ts *httptest.Server, model *registry.Model) (*Client, *Session, string) {
	t.Helper()
	ctx := context.Background()
	c := NewClient(ts.URL, nil)
	sess, err := c.NewSession(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, model.InputDim)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	vec := make([]float64, sess.params.Slots())
	copy(vec, x)
	pt, err := sess.enc.EncodeReals(vec, sess.params.MaxLevel(), sess.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	_, traceID, err := sess.InferCiphertextTraced(ctx, sess.encr.Encrypt(pt))
	if err != nil {
		t.Fatal(err)
	}
	if traceID == "" {
		t.Fatal("infer response carried no X-Henn-Trace header")
	}
	return c, sess, traceID
}

// metricLine is the shape every non-comment Prometheus text line must take.
// The label block is matched greedily: label values may contain spaces and
// braces (route patterns like "POST /v1/sessions/{id}/infer").
var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? \S+$`)

// TestMetricsEndpoint: after one inference, GET /metrics serves parseable
// Prometheus text exposition with the per-model histograms and runtime
// gauges the issue promises.
func TestMetricsEndpoint(t *testing.T) {
	model, srv, ts := newTestServer(t)
	c, _, _ := inferOnce(t, ts, model)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", got)
	}
	body, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Every line is either a HELP/TYPE comment or name{labels} value.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}

	ref := "demo-mlp-16x8x4@1"
	for _, want := range []string{
		`henn_unit_seconds_bucket{model="` + ref + `",le="+Inf"} 1`,
		`henn_unit_seconds_count{model="` + ref + `"} 1`,
		`henn_queue_wait_seconds_count{model="` + ref + `"} 1`,
		`henn_http_requests_total{route="POST /v1/sessions/{id}/infer",code="200"} 1`,
		"# TYPE henn_unit_seconds histogram",
		"# TYPE henn_units_run_total counter",
		"henn_units_run_total 1",
		"henn_uptime_seconds ",
		"henn_goroutines ",
		"henn_heap_bytes ",
		"henn_ckks_stage_seconds_count{stage=",
		"henn_model_compile_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, "henn_pool_") {
		t.Error("/metrics still serves a worker-pool family; workers take jobs themselves")
	}

	// One registration and one inference: the payload counters hold the
	// registration body's exact size, the top-level ciphertext's and the result's, each
	// packed at the primes' widths.
	dep := srv.reg.List()[0]
	params := dep.Params()
	payload := map[string]int{}
	for _, m := range payloadBytes.FindAllStringSubmatch(body, -1) {
		payload[m[1]], _ = strconv.Atoi(m[2])
	}
	if got, want := payload["register"], frameSize(dep.ParamBytes(), params, len(dep.Rotations())); got != want {
		t.Errorf("register payload bytes %d, want the body's %d", got, want)
	}
	if got, want := payload["infer_request"], params.CiphertextWireSize(params.MaxLevel()); got != want {
		t.Errorf("infer_request payload bytes %d, want a top-level ciphertext's %d", got, want)
	}
	if got, want := payload["infer_response"], params.CiphertextWireSize(params.MaxLevel()-dep.Levels()); got != want {
		t.Errorf("infer_response payload bytes %d, want a level-%d ciphertext's %d", got, params.MaxLevel()-dep.Levels(), want)
	}
}

// payloadBytes is one henn_payload_bytes_total sample line.
var payloadBytes = regexp.MustCompile(`(?m)^henn_payload_bytes_total\{kind="([a-z_]+)"\} (\d+)$`)

// TestRegisterPhasesOnMetrics: a registration times its read, decode and
// validate phases into henn_register_seconds, and a body refused in one
// phase records the phases before it and none after. The read phase ends
// once the literal has matched; decode reads and decodes the keys.
func TestRegisterPhasesOnMetrics(t *testing.T) {
	_, srv, ts := newTestServer(t)
	dep := srv.reg.List()[0]
	kg := ckks.NewKeyGenerator(dep.Params(), 3)
	frame := clientFrame(kg, kg.GenSecretKey(), dep.ParamBytes(), dep.Rotations())
	post := func(body []byte, want int) {
		t.Helper()
		resp, err := http.Post(ts.URL+registerPath(dep.Ref()), "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("registration: %s, want %d", resp.Status, want)
		}
	}
	counts := func() map[string]int {
		t.Helper()
		body, err := NewClient(ts.URL, nil).Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for _, m := range registerCount.FindAllStringSubmatch(body, -1) {
			out[m[1]], _ = strconv.Atoi(m[2])
		}
		return out
	}

	post(frame, http.StatusOK)
	if got, want := counts(), map[string]int{"read": 1, "decode": 1, "validate": 1}; !maps.Equal(got, want) {
		t.Errorf("after one registration the phase counts are %v, want %v", got, want)
	}
	// The literal's last byte is the read phase's to refuse.
	literalEnd := len(dep.ParamBytes())
	foreign := bytes.Clone(frame)
	foreign[literalEnd-1] ^= 1
	post(foreign, http.StatusBadRequest)
	if got, want := counts(), map[string]int{"read": 1, "decode": 1, "validate": 1}; !maps.Equal(got, want) {
		t.Errorf("after a body refused in read the phase counts are %v, want %v", got, want)
	}
	// The relinearization key's magic is the decode phase's.
	badKey := bytes.Clone(frame)
	badKey[literalEnd] ^= 1
	post(badKey, http.StatusBadRequest)
	if got, want := counts(), map[string]int{"read": 2, "decode": 1, "validate": 1}; !maps.Equal(got, want) {
		t.Errorf("after a body refused in decode the phase counts are %v, want %v", got, want)
	}
}

// registerCount is one henn_register_seconds_count sample line.
var registerCount = regexp.MustCompile(`(?m)^henn_register_seconds_count\{phase="([a-z]+)"\} (\d+)$`)

// stageCount is one henn_ckks_stage_seconds_count sample line.
var stageCount = regexp.MustCompile(`(?m)^henn_ckks_stage_seconds_count\{stage="([a-z_]+)"\} (\d+)$`)

// TestStageTimeStaysWithItsServer: a server's stage histogram holds the
// stage time of its own units and nobody else's. Stage time used to come
// from the process-global CKKS observer, which the server built last took
// over, so every server's samples landed in the last one's /metrics.
func TestStageTimeStaysWithItsServer(t *testing.T) {
	model, _, first := newTestServer(t)
	_, _, second := newTestServer(t)
	c, _, _ := inferOnce(t, first, model)
	ctx := context.Background()

	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]int{}
	for _, m := range stageCount.FindAllStringSubmatch(body, -1) {
		n, _ := strconv.Atoi(m[2])
		stages[m[1]] = n
	}
	for _, stage := range []string{"rotate", "rotate_hoisted", "rescale", "paf_eval"} {
		if stages[stage] == 0 {
			t.Errorf("the inferring server's /metrics has no %q stage samples; got %v", stage, stages)
		}
	}
	if _, ok := stages["key_switch"]; ok {
		t.Error(`stage "key_switch" served; it is not a trace stage`)
	}

	body, err = NewClient(second.URL, nil).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stageCount.FindAllString(body, -1); len(got) > 0 {
		t.Errorf("the idle server's /metrics has stage samples: %v", got)
	}
}

// TestInferTraceBreakdown: the trace born at ingress must show the request's
// journey — queue wait, unit — plus at least three CKKS stages
// whose total accounts for the bulk of (and never exceeds) the unit span.
func TestInferTraceBreakdown(t *testing.T) {
	model, _, ts := newTestServer(t)
	c, _, traceID := inferOnce(t, ts, model)
	ctx := context.Background()

	snap, err := c.Trace(ctx, traceID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != traceID {
		t.Fatalf("trace id = %q, want %q", snap.ID, traceID)
	}
	spans := map[string]telemetry.SpanSnapshot{}
	for _, sp := range snap.Spans {
		spans[sp.Name] = sp
	}
	for _, want := range []string{"request", "queue_wait", "unit"} {
		if _, ok := spans[want]; !ok {
			t.Fatalf("trace missing span %q; got %+v", want, snap.Spans)
		}
	}
	unit := spans["unit"]
	if unit.DurUs > spans["request"].DurUs {
		t.Errorf("unit span %dµs exceeds request span %dµs", unit.DurUs, spans["request"].DurUs)
	}
	if len(snap.Stages) < 3 {
		t.Fatalf("trace has %d CKKS stages, want >= 3: %+v", len(snap.Stages), snap.Stages)
	}
	var stageTotalUs int64
	for _, st := range snap.Stages {
		stageTotalUs += st.TotalUs
	}
	if stageTotalUs > unit.DurUs {
		t.Errorf("stage total %dµs exceeds unit span %dµs", stageTotalUs, unit.DurUs)
	}
	if stageTotalUs*2 < unit.DurUs {
		t.Errorf("stage total %dµs covers under half of unit span %dµs — instrumentation gap", stageTotalUs, unit.DurUs)
	}

	// The ring listing serves the same trace, newest first.
	snaps, err := c.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 || snaps[0].ID != traceID {
		t.Errorf("trace listing does not lead with %q: %+v", traceID, snaps)
	}
}

// TestTraceNotFound: an unknown id is a 404, not an empty snapshot.
func TestTraceNotFound(t *testing.T) {
	_, _, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/traces/deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestStatsRuntimeAndQuantiles: the process runtime figures and the latency
// distributions are /metrics series — the uptime, goroutine and heap gauges
// read positive and the unit histogram holds the inference — and /v1/stats
// does not repeat them: it serves the scheduler counters and the per-model
// breakdown /metrics lacks.
func TestStatsRuntimeAndQuantiles(t *testing.T) {
	model, _, ts := newTestServer(t)
	c, _, _ := inferOnce(t, ts, model)
	ctx := context.Background()

	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sample := func(series string) float64 {
		t.Helper()
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s: %v", series, err)
				}
				return f
			}
		}
		t.Fatalf("/metrics missing %s", series)
		return 0
	}
	for _, series := range []string{"henn_uptime_seconds", "henn_goroutines", "henn_heap_bytes",
		`henn_unit_seconds_sum{model="demo-mlp-16x8x4@1"}`} {
		if v := sample(series); v <= 0 {
			t.Errorf("%s = %g, want > 0", series, v)
		}
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.UnitsRun != 1 || len(st.Models) != 1 || st.Models[0].UnitsRun != 1 {
		t.Errorf("stats %+v, want one unit run on the one model", st)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"uptime_seconds"`, `"goroutines"`, `"heap_bytes"`, `"unitP50Ms"`, `"queueP50Ms"`} {
		if strings.Contains(string(raw), key) {
			t.Errorf("stats JSON repeats the /metrics figure %s: %s", key, raw)
		}
	}
}

// TestScrapesMintNoSeries: the read paths only read. After one warm-up
// scrape of each (which mints their own request counters), further
// GET /metrics and GET /v1/stats calls add no series, and a deployed model
// no session has registered against has no per-model series at all.
func TestScrapesMintNoSeries(t *testing.T) {
	_, srv, ts := newTestServer(t)
	ctx := context.Background()
	c := NewClient(ts.URL, nil)
	series := func() (n int, body string) {
		t.Helper()
		body, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// One line per counter or gauge, a _sum and a _count per histogram
		// series; bucket lines vary with the samples, not with the series.
		for _, line := range strings.Split(body, "\n") {
			if line != "" && !strings.HasPrefix(line, "#") && !strings.Contains(line, "_bucket{") {
				n++
			}
		}
		return n, body
	}
	// The warm-up: a request's own series appear once it has been served.
	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	series()
	warm, _ := series()
	for i := 0; i < 3; i++ {
		if _, err := c.Stats(ctx); err != nil {
			t.Fatal(err)
		}
		if n, body := series(); n != warm {
			t.Fatalf("scrape %d: %d series, want the warm-up's %d:\n%s", i, n, warm, body)
		}
	}
	_, body := series()
	for _, d := range srv.reg.List() {
		if strings.Contains(body, `model="`+d.Ref()+`"`) {
			t.Errorf("%s has per-model series with no session registered:\n%s", d.Ref(), body)
		}
	}
}

// syncBuffer serializes concurrent handler writes to one log buffer.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder // guarded by mu
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

// TestAccessLog: with Options.AccessLog set, every request emits one
// structured record carrying the fields the issue lists; the infer record is
// attributed to its session, model and trace.
func TestAccessLog(t *testing.T) {
	model, err := registry.DemoModel(11, testLogN)
	if err != nil {
		t.Fatal(err)
	}
	buf := new(syncBuffer)
	srv, err := New(Options{
		Workers:   -1,
		AccessLog: slog.New(slog.NewJSONHandler(buf, nil)),
	}, model)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	_, sess, traceID := inferOnce(t, ts, model)

	type record struct {
		Msg     string `json:"msg"`
		Method  string `json:"method"`
		Path    string `json:"path"`
		Session string `json:"session"`
		Model   string `json:"model"`
		Status  int    `json:"status"`
		Bytes   int64  `json:"bytes"`
		Trace   string `json:"trace"`
	}
	var infer *record
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, line := range lines {
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable access-log line %q: %v", line, err)
		}
		if rec.Msg != "request" {
			t.Errorf("msg = %q, want \"request\"", rec.Msg)
		}
		if strings.HasSuffix(rec.Path, "/infer") {
			infer = &rec
		}
	}
	if len(lines) < 3 { // model fetch, registration, infer at minimum
		t.Fatalf("access log has %d records, want one per request:\n%s", len(lines), buf.String())
	}
	if infer == nil {
		t.Fatalf("no infer record in access log:\n%s", buf.String())
	}
	if infer.Method != http.MethodPost || infer.Status != http.StatusOK {
		t.Errorf("infer record %+v, want POST / 200", infer)
	}
	if infer.Session != sess.ID() || infer.Model != "demo-mlp-16x8x4@1" {
		t.Errorf("infer attribution session=%q model=%q, want %q / demo-mlp-16x8x4@1", infer.Session, infer.Model, sess.ID())
	}
	if infer.Trace != traceID {
		t.Errorf("infer record trace %q, want %q", infer.Trace, traceID)
	}
	if infer.Bytes == 0 {
		t.Error("infer record reports zero response bytes")
	}
}
