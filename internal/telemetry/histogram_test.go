package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestHistogramEmpty: an empty histogram reports zero everywhere instead
// of NaN or a panic — stats surfaces render it before traffic arrives.
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if got := h.Count(); got != 0 {
		t.Fatalf("Count = %d, want 0", got)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("Quantile(%g) on empty histogram = %g, want 0", q, got)
		}
	}
	if got := h.Sum(); got != 0 {
		t.Fatalf("Sum = %v, want 0", got)
	}
}

// TestHistogramNil: every method tolerates a nil receiver (the disabled
// state instrumented code relies on).
func TestHistogramNil(t *testing.T) {
	var h *Histogram
	h.Record(time.Millisecond)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must read as empty")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil snapshot must be empty")
	}
}

// TestHistogramSingleSample: one observation pins every quantile inside
// its bucket, and the bucket bound brackets the sample.
func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	d := 3 * time.Millisecond
	h.Record(d)
	if got := h.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
	if got := h.Sum(); got != d {
		t.Fatalf("Sum = %v, want %v", got, d)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		// 3ms lands in the (2ms, 4.096ms] bucket; any interpolated point
		// must stay inside it.
		if got <= 2048e-6 || got > 4096e-6 {
			t.Fatalf("Quantile(%g) = %gs, outside the sample's bucket (2.048ms, 4.096ms]", q, got)
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
// toward Count and quantiles saturate at the top finite bound rather than
// inventing a value the histogram cannot resolve.
func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	huge := 100 * time.Hour
	h.Record(huge)
	h.Record(huge)
	if got := h.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	top := bucketBound(numBuckets - 1)
	if got := h.Quantile(0.99); got != top {
		t.Fatalf("Quantile(0.99) = %g, want top finite bound %g", got, top)
	}
	snap := h.Snapshot()
	if snap.Counts[numBuckets] != 2 {
		t.Fatalf("overflow bucket holds %d, want 2", snap.Counts[numBuckets])
	}
}

// TestHistogramQuantileOrdering: quantiles are monotone and bracket the
// recorded range on a spread of samples.
func TestHistogramQuantileOrdering(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	p50, p95, p99 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles not monotone: p50=%g p95=%g p99=%g", p50, p95, p99)
	}
	// Log-bucketed resolution: each estimate must be within its bucket's
	// 2x of the true value.
	if p50 < 0.25 || p50 > 1.1 {
		t.Fatalf("p50 = %g, want ~0.5 within bucket resolution", p50)
	}
	if p99 < 0.5 || p99 > 2.2 {
		t.Fatalf("p99 = %g, want ~0.99 within bucket resolution", p99)
	}
}

// TestHistogramConcurrentRecordAndMerge hammers two histograms from many
// goroutines while a third concurrently scrapes them — under -race this
// proves Record/Quantile/Snapshot need no external locking — then checks the
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
				_ = a.Quantile(0.99)
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
// writer and quantile interpolation share.
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
