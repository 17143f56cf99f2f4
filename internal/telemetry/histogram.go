// Package telemetry is the serving stack's zero-dependency observability
// layer: lock-cheap latency histograms and labeled counters rendered in
// Prometheus text exposition format, plus a lightweight per-request span
// API that follows a job from HTTP ingress down to individual CKKS
// primitive stages. Everything is stdlib-only and safe for concurrent use;
// the disabled paths (nil *Trace, no observer installed) are designed to
// cost a pointer test so instrumentation can stay compiled into the hot
// path.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets is the count of finite histogram buckets. Bucket i covers
// durations in (2^(i-1) µs, 2^i µs]; bucket 0 is everything up to 1µs and
// one extra bucket catches overflow (le="+Inf"). The top finite bound is
// 2^35 µs ≈ 9.5 hours — far beyond any serving latency this stack emits.
const numBuckets = 36

// Histogram is a log2-bucketed latency histogram. Record is two atomic
// adds and touches no locks, so it can sit on the CKKS hot path; Snapshot
// reads the same atomics, so concurrent recording never blocks a scrape. The zero value is ready to use, and all methods tolerate a nil
// receiver (they drop the sample or report empty) so call sites need no
// enabled-check.
type Histogram struct {
	counts [numBuckets + 1]atomic.Uint64 // counts[numBuckets] is the +Inf bucket
	sum    atomic.Int64                  // total nanoseconds recorded
}

// bucketIndex maps a duration to its bucket: the smallest i with
// d <= 2^i µs, or the overflow bucket.
func bucketIndex(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns <= 0 {
		return 0
	}
	us := uint64(ns+999) / 1000 // ceil to µs so d <= bucketBound(i) holds exactly
	if us <= 1 {
		return 0
	}
	i := bits.Len64(us - 1) // smallest i with 2^i >= us
	if i >= numBuckets {
		return numBuckets
	}
	return i
}

// bucketBound returns bucket i's inclusive upper bound in seconds.
func bucketBound(i int) float64 {
	return 1e-6 * float64(uint64(1)<<uint(i))
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(d)].Add(1)
	if d > 0 {
		h.sum.Add(d.Nanoseconds())
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the total recorded time.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// HistogramSnapshot is a point-in-time copy of a histogram's buckets, used
// by the exposition writer and by tests asserting merge consistency. Readers
// take quantiles from the rendered buckets (/metrics), not from here.
type HistogramSnapshot struct {
	Counts [numBuckets + 1]uint64 // per-bucket counts; last is +Inf
	Sum    time.Duration
	Count  uint64
}

// Snapshot copies the current bucket counts. Buckets are read atomically
// but not at a single instant; totals are exact once recording quiesces.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.Sum = time.Duration(h.sum.Load())
	return s
}
