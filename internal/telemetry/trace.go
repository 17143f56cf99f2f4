package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"time"
)

// maxSpansPerTrace bounds a trace's discrete span list; traffic beyond the
// cap increments a dropped counter instead of growing memory. CKKS stage
// timings do not count against this — they aggregate into fixed-size
// per-stage totals regardless of how many primitive calls a unit makes.
const maxSpansPerTrace = 64

// Trace collects the timing story of one request: discrete spans for the
// coarse pipeline stages (queue wait, unit execution) and
// aggregated per-stage totals for the CKKS primitives underneath, which
// fire far too often (hundreds of rotations per unit) to store
// individually. A nil *Trace is the disabled state: every method no-ops,
// so instrumented code never branches on "is tracing on".
type Trace struct {
	id    string
	start time.Time

	mu      sync.Mutex
	spans   []SpanData           // guarded by mu
	stages  map[string]*stageAgg // guarded by mu
	dropped int                  // guarded by mu
}

// SpanData is one completed span.
type SpanData struct {
	Name  string
	Start time.Time
	End   time.Time
	Attrs [][2]string
}

type stageAgg struct {
	count int
	total time.Duration
}

// NewTraceID returns a fresh 64-bit random trace ID in hex.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero ID beats
		// a panic on the serving path if it somehow does.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// NewTrace starts a trace; the clock starts now.
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace ID ("" on a nil trace).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// AddSpan records a completed span from measured endpoints, which may
// come from different goroutines (a queue-wait span starts at enqueue
// and ends when a worker starts the unit). Attribute values end up in trace
// JSON served over HTTP — never pass secret material.
func (tr *Trace) AddSpan(name string, start, end time.Time, attrs ...[2]string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= maxSpansPerTrace {
		tr.dropped++
		return
	}
	tr.spans = append(tr.spans, SpanData{Name: name, Start: start, End: end, Attrs: attrs})
}

// StageStart returns a start mark for StageEnd, or the zero Time when the
// trace is nil — so the disabled path costs one nil test and no clock
// read.
func (tr *Trace) StageStart() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// StageEnd accumulates time since start into the named stage total. A
// zero start (disabled trace at StageStart time) is dropped.
func (tr *Trace) StageEnd(name string, start time.Time) {
	if tr == nil || start.IsZero() {
		return
	}
	d := time.Since(start)
	tr.mu.Lock()
	if tr.stages == nil {
		tr.stages = map[string]*stageAgg{}
	}
	agg := tr.stages[name]
	if agg == nil {
		agg = &stageAgg{}
		tr.stages[name] = agg
	}
	agg.count++
	agg.total += d
	tr.mu.Unlock()
}

// StageTotals returns a copy of every stage's accumulated time, keyed by
// stage name (nil on a nil trace).
func (tr *Trace) StageTotals() map[string]time.Duration {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make(map[string]time.Duration, len(tr.stages))
	for name, agg := range tr.stages {
		out[name] = agg.total
	}
	return out
}

// TraceSnapshot is the JSON shape served at /v1/traces.
type TraceSnapshot struct {
	ID      string          `json:"id"`
	Start   time.Time       `json:"start"`
	Spans   []SpanSnapshot  `json:"spans"`
	Stages  []StageSnapshot `json:"stages,omitempty"`
	Dropped int             `json:"dropped_spans,omitempty"`
}

// SpanSnapshot is one span with times as offsets from the trace start.
type SpanSnapshot struct {
	Name    string            `json:"name"`
	StartUs int64             `json:"start_us"`
	DurUs   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// StageSnapshot is one aggregated CKKS stage total.
type StageSnapshot struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalUs int64  `json:"total_us"`
}

// Snapshot renders the trace for serving: spans in completion order,
// stages sorted by name. Safe to call while the trace is still being
// written to.
func (tr *Trace) Snapshot() TraceSnapshot {
	if tr == nil {
		return TraceSnapshot{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	snap := TraceSnapshot{ID: tr.id, Start: tr.start, Dropped: tr.dropped}
	snap.Spans = make([]SpanSnapshot, 0, len(tr.spans))
	for _, sp := range tr.spans {
		s := SpanSnapshot{
			Name:    sp.Name,
			StartUs: sp.Start.Sub(tr.start).Microseconds(),
			DurUs:   sp.End.Sub(sp.Start).Microseconds(),
		}
		if len(sp.Attrs) > 0 {
			s.Attrs = make(map[string]string, len(sp.Attrs))
			for _, kv := range sp.Attrs {
				s.Attrs[kv[0]] = kv[1]
			}
		}
		snap.Spans = append(snap.Spans, s)
	}
	for name, agg := range tr.stages {
		snap.Stages = append(snap.Stages, StageSnapshot{Name: name, Count: agg.count, TotalUs: agg.total.Microseconds()})
	}
	sort.Slice(snap.Stages, func(i, j int) bool { return snap.Stages[i].Name < snap.Stages[j].Name })
	return snap
}

type traceCtxKey struct{}

// WithTrace attaches a trace to a context.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tr)
}

// FromContext returns the context's trace, or nil (the disabled trace).
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return tr
}

// TraceRing is a bounded ring of recent traces, queryable by ID — the
// backing store for GET /v1/traces. Old traces are overwritten in FIFO
// order once the ring fills.
type TraceRing struct {
	mu   sync.Mutex
	buf  []*Trace // guarded by mu
	next int      // guarded by mu
}

// NewTraceRing returns a ring holding up to n traces (n < 1 becomes 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]*Trace, n)}
}

// Put stores a trace, evicting the oldest entry once full.
func (r *TraceRing) Put(tr *Trace) {
	if r == nil || tr == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = tr
	r.next = (r.next + 1) % len(r.buf)
	r.mu.Unlock()
}

// Get returns the trace with the given ID, or nil if it has aged out.
func (r *TraceRing) Get(id string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, tr := range r.buf {
		if tr != nil && tr.id == id {
			return tr
		}
	}
	return nil
}

// Recent returns up to n traces, newest first.
func (r *TraceRing) Recent(n int) []*Trace {
	if r == nil || n < 1 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, min(n, len(r.buf)))
	for i := 1; i <= len(r.buf) && len(out) < n; i++ {
		tr := r.buf[(r.next-i+len(r.buf))%len(r.buf)]
		if tr == nil {
			break
		}
		out = append(out, tr)
	}
	return out
}
