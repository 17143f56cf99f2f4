package telemetry

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// exposition renders a registry holding one histogram, h_seconds, after
// record has filled it: what a /metrics scrape of it reads.
func exposition(t *testing.T, record func(h *Histogram)) string {
	t.Helper()
	r := NewRegistry()
	record(r.NewHistogram("h_seconds", "h"))
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// buckets reads the cumulative bucket counts of h_seconds off an
// exposition, in the order rendered, with their upper bounds (+Inf as such).
func buckets(t *testing.T, text string) (les []float64, cums []uint64) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, `h_seconds_bucket{le="`)
		if !ok {
			continue
		}
		le, count, _ := strings.Cut(rest, `"} `)
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("bucket bound %q: %v", le, err)
		}
		n, err := strconv.ParseUint(count, 10, 64)
		if err != nil {
			t.Fatalf("bucket count %q: %v", count, err)
		}
		les, cums = append(les, bound), append(cums, n)
	}
	return les, cums
}

// quantileBucket is the upper bound of the bucket holding the q-quantile, as
// a scraper's histogram_quantile finds it: the first whose cumulative count
// reaches q of the total.
func quantileBucket(les []float64, cums []uint64, q float64) float64 {
	total := float64(cums[len(cums)-1])
	for i, c := range cums {
		if float64(c) >= q*total {
			return les[i]
		}
	}
	return math.Inf(1)
}

// TestHistogramEmpty: an empty histogram renders zero everywhere instead of
// NaN or a panic — /metrics serves it before traffic arrives: only the +Inf
// bucket, a zero sum and a zero count.
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if got := h.Count(); got != 0 {
		t.Fatalf("Count = %d, want 0", got)
	}
	if got := h.Sum(); got != 0 {
		t.Fatalf("Sum = %v, want 0", got)
	}
	want := "# HELP h_seconds h\n# TYPE h_seconds histogram\n" +
		"h_seconds_bucket{le=\"+Inf\"} 0\nh_seconds_sum 0\nh_seconds_count 0\n"
	if got := exposition(t, func(*Histogram) {}); got != want {
		t.Fatalf("empty histogram renders\n%s\nwant\n%s", got, want)
	}
}

// TestHistogramNil: every method tolerates a nil receiver (the disabled
// state instrumented code relies on).
func TestHistogramNil(t *testing.T) {
	var h *Histogram
	h.Record(time.Millisecond)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must read as empty")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil snapshot must be empty")
	}
}

// TestHistogramSingleSample: one observation renders in the one bucket whose
// bound brackets it, so every quantile a scraper reads lands there.
func TestHistogramSingleSample(t *testing.T) {
	d := 3 * time.Millisecond
	var h *Histogram
	text := exposition(t, func(hh *Histogram) { h = hh; h.Record(d) })
	if h.Count() != 1 || h.Sum() != d {
		t.Fatalf("Count = %d, Sum = %v, want 1 and %v", h.Count(), h.Sum(), d)
	}
	les, cums := buckets(t, text)
	// 3ms lands in the (2.048ms, 4.096ms] bucket.
	if len(les) != 2 || les[0] != 4096e-6 || cums[0] != 1 || cums[1] != 1 {
		t.Fatalf("buckets %v %v, want the sample at le=0.004096 and +Inf", les, cums)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := quantileBucket(les, cums, q); got != 4096e-6 {
			t.Fatalf("quantile %g reads bucket %g, want 0.004096", q, got)
		}
	}
}

// TestHistogramBucketIndex pins the bucket edges: exact powers of two land
// on their own bound, one nanosecond past rolls into the next bucket.
func TestHistogramBucketIndex(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + time.Nanosecond, 1},
		{2 * time.Microsecond, 1},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},       // 1024µs bound is 2^10
		{time.Second, 20},            // ≤ 2^20 µs = 1.048576s
		{2 * time.Hour, 33},          // 7200s ≤ 2^33 µs ≈ 8590s
		{40 * time.Hour, numBuckets}, // past the top finite bound → overflow
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestHistogramOverflowBucket: samples beyond the top finite bound count
// toward Count and render in the +Inf bucket alone, so a scraper's quantile
// saturates instead of inventing a value the histogram cannot resolve.
func TestHistogramOverflowBucket(t *testing.T) {
	var h *Histogram
	text := exposition(t, func(hh *Histogram) {
		h = hh
		h.Record(100 * time.Hour)
		h.Record(100 * time.Hour)
	})
	if got := h.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	if snap := h.Snapshot(); snap.Counts[numBuckets] != 2 {
		t.Fatalf("overflow bucket holds %d, want 2", snap.Counts[numBuckets])
	}
	les, cums := buckets(t, text)
	if len(les) != 1 || !math.IsInf(les[0], 1) || cums[0] != 2 {
		t.Fatalf("buckets %v %v, want both samples in +Inf alone", les, cums)
	}
}

// TestHistogramQuantileOrdering: on a spread of samples the rendered buckets
// are cumulative and monotone, and the quantiles a scraper reads off them are
// ordered and within a bucket's 2x of the true values.
func TestHistogramQuantileOrdering(t *testing.T) {
	les, cums := buckets(t, exposition(t, func(h *Histogram) {
		for i := 1; i <= 1000; i++ {
			h.Record(time.Duration(i) * time.Millisecond)
		}
	}))
	for i := 1; i < len(les); i++ {
		if les[i] <= les[i-1] || cums[i] < cums[i-1] {
			t.Fatalf("buckets not monotone at %d: %v %v", i, les, cums)
		}
	}
	if cums[len(cums)-1] != 1000 {
		t.Fatalf("+Inf bucket holds %d, want 1000", cums[len(cums)-1])
	}
	p50, p95, p99 := quantileBucket(les, cums, 0.50), quantileBucket(les, cums, 0.95), quantileBucket(les, cums, 0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles not monotone: p50=%g p95=%g p99=%g", p50, p95, p99)
	}
	if p50 < 0.5 || p50 > 1.0 {
		t.Fatalf("p50 bucket %g, want the one bracketing 0.5 s", p50)
	}
	if p99 < 0.99 || p99 > 1.98 {
		t.Fatalf("p99 bucket %g, want the one bracketing 0.99 s", p99)
	}
}

// TestHistogramConcurrentRecordAndMerge hammers two histograms from many
// goroutines while a third concurrently scrapes them — under -race this
// proves Record/Snapshot need no external locking — then checks the
// two snapshots merged hold exactly what was recorded.
func TestHistogramConcurrentRecordAndMerge(t *testing.T) {
	var a, b Histogram
	const (
		writers = 8
		perG    = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				d := time.Duration(g*perG+i+1) * time.Microsecond
				if g%2 == 0 {
					a.Record(d)
				} else {
					b.Record(d)
				}
			}
		}(g)
	}
	// Concurrent scrapes while writes are in flight: only the race
	// detector's verdict matters here.
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = a.Snapshot()
				_ = b.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	scraper.Wait()

	// Quiesced: the merged snapshots must be bit-exact against the writes.
	as, bs := a.Snapshot(), b.Snapshot()
	const n = writers * perG
	if got := as.Count + bs.Count; got != n {
		t.Fatalf("merged Count = %d, want %d", got, n)
	}
	if got, want := as.Sum+bs.Sum, time.Duration(n*(n+1)/2)*time.Microsecond; got != want {
		t.Fatalf("merged Sum = %v, want %v", got, want)
	}
	var buckets uint64
	for i := range as.Counts {
		buckets += as.Counts[i] + bs.Counts[i]
	}
	if buckets != n || a.Count() != as.Count || b.Sum() != bs.Sum {
		t.Fatalf("buckets hold %d observations; snapshots disagree with live reads", buckets)
	}
}

// TestBucketBoundsMonotone sanity-checks the bound table the exposition
// writer renders.
func TestBucketBoundsMonotone(t *testing.T) {
	prev := math.Inf(-1)
	for i := 0; i < numBuckets; i++ {
		b := bucketBound(i)
		if b <= prev {
			t.Fatalf("bucketBound(%d) = %g not increasing past %g", i, b, prev)
		}
		prev = b
	}
	if got := bucketBound(0); got != 1e-6 {
		t.Fatalf("bucketBound(0) = %g, want 1e-6", got)
	}
}
