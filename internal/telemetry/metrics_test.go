package telemetry

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestWriteTextGolden pins the exact Prometheus text exposition output for
// a registry exercising every metric kind — counters with and without
// labels, a scrape-time gauge, and a histogram with samples in three
// buckets. The format is a wire contract with external scrapers, so it is
// asserted byte-for-byte.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	reqs := r.NewCounterVec("henn_http_requests_total", "HTTP requests by route and status.", "route", "code")
	reqs.With("GET /v1/stats", "200").Add(3)
	reqs.With("POST /v1/sessions", "201").Inc()
	r.NewGaugeFunc("henn_workers", "Resolved worker budget.", func() float64 { return 4 })
	lat := r.NewHistogramVec("henn_unit_seconds", "Unit execution latency by model.", "model")
	h := lat.With("alpha@1")
	h.Record(500 * time.Nanosecond) // bucket 0: le 1e-06
	h.Record(3 * time.Microsecond)  // bucket 2: le 4e-06
	h.Record(3 * time.Microsecond)
	h.Record(time.Millisecond) // bucket 10: le 0.001024

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP henn_http_requests_total HTTP requests by route and status.
# TYPE henn_http_requests_total counter
henn_http_requests_total{route="GET /v1/stats",code="200"} 3
henn_http_requests_total{route="POST /v1/sessions",code="201"} 1
# HELP henn_unit_seconds Unit execution latency by model.
# TYPE henn_unit_seconds histogram
henn_unit_seconds_bucket{model="alpha@1",le="1e-06"} 1
henn_unit_seconds_bucket{model="alpha@1",le="4e-06"} 3
henn_unit_seconds_bucket{model="alpha@1",le="0.001024"} 4
henn_unit_seconds_bucket{model="alpha@1",le="+Inf"} 4
henn_unit_seconds_sum{model="alpha@1"} 0.0010065
henn_unit_seconds_count{model="alpha@1"} 4
# HELP henn_workers Resolved worker budget.
# TYPE henn_workers gauge
henn_workers 4
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLabelEscaping: label values with quotes, backslashes and newlines
// must escape per the exposition format.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("c_total", "h", "l").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `c_total{l="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping failed:\n%s", b.String())
	}
}

// TestVecWithMintsOnce: With creates a series on first use and returns the
// same one thereafter, and the exposition holds exactly the series With
// minted — a label set never passed to it is not rendered.
func TestVecWithMintsOnce(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("x_total", "h", "k")
	c := v.With("a")
	c.Inc()
	if v.With("a") != c {
		t.Fatal("With must return the same series for equal labels")
	}
	hv := r.NewHistogramVec("y_seconds", "h", "k")
	hh := hv.With("a")
	hh.Record(time.Millisecond)
	if hv.With("a") != hh {
		t.Fatal("HistogramVec.With must return the same series for equal labels")
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, `x_total{k="a"} 1`) || !strings.Contains(text, `y_seconds_count{k="a"} 1`) {
		t.Fatalf("minted series missing from the exposition:\n%s", text)
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "{") && !strings.Contains(line, `k="a"`) {
			t.Fatalf("exposition holds a series With never minted: %s", line)
		}
	}
}

// TestVecSeriesCap: a family stops minting series at maxSeriesPerFamily.
// A new label set past the cap gets the nil no-op instrument, the series
// already minted keep counting, and the exposition does not grow.
func TestVecSeriesCap(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("capped_total", "h", "k")
	hv := r.NewHistogramVec("capped_seconds", "h", "k")
	for i := 0; i < maxSeriesPerFamily; i++ {
		v.With(strconv.Itoa(i)).Inc()
		hv.With(strconv.Itoa(i)).Record(time.Millisecond)
	}
	var before strings.Builder
	if err := r.WriteText(&before); err != nil {
		t.Fatal(err)
	}
	if c := v.With("overflow"); c != nil {
		t.Fatal("With minted a series past the cap")
	}
	if h := hv.With("overflow"); h != nil {
		t.Fatal("HistogramVec.With minted a series past the cap")
	}
	v.With("overflow").Inc()
	hv.With("overflow").Record(time.Millisecond)
	var after strings.Builder
	if err := r.WriteText(&after); err != nil {
		t.Fatal(err)
	}
	if after.String() != before.String() {
		t.Fatal("exposition changed past the cap")
	}
	if v.With("0").Inc(); v.With("0").Value() != 2 {
		t.Fatal("an existing series stopped counting at the cap")
	}
}

// TestDuplicateRegistrationPanics: metric names are a global contract per
// registry; silently shadowing one is a bug worth failing fast on.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("dup_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	r.NewCounterVec("dup_total", "h")
}

// TestCounterNil: nil counters swallow writes (disabled instrumentation).
func TestCounterNil(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
}
