package telemetry

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestTraceNilSafe: the entire span/stage API no-ops on a nil trace — the
// disabled state every instrumented call site relies on.
func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Fatal("nil trace must have empty ID")
	}
	tr.AddSpan("y", time.Now(), time.Now())
	if mark := tr.StageStart(); !mark.IsZero() {
		t.Fatal("nil StageStart must return the zero Time")
	}
	tr.StageEnd("stage", time.Time{})
	if totals := tr.StageTotals(); totals != nil {
		t.Fatalf("nil trace has stage totals %v", totals)
	}
	if snap := tr.Snapshot(); snap.ID != "" || len(snap.Spans) != 0 {
		t.Fatal("nil snapshot must be empty")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context must carry no trace")
	}
}

// TestTraceSpansAndStages: spans land in completion order with attrs and
// offsets; stage totals aggregate across repeated calls.
func TestTraceSpansAndStages(t *testing.T) {
	tr := NewTrace("abc123")
	start := time.Now()
	time.Sleep(time.Millisecond)
	tr.AddSpan("unit", start, time.Now(), [2]string{"model", "alpha@1"})

	for i := 0; i < 3; i++ {
		mark := tr.StageStart()
		time.Sleep(200 * time.Microsecond)
		tr.StageEnd("rotate", mark)
	}

	snap := tr.Snapshot()
	if snap.ID != "abc123" {
		t.Fatalf("ID = %q", snap.ID)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "unit" {
		t.Fatalf("spans = %+v", snap.Spans)
	}
	if snap.Spans[0].Attrs["model"] != "alpha@1" {
		t.Fatalf("attrs = %v", snap.Spans[0].Attrs)
	}
	if snap.Spans[0].DurUs < 1000 {
		t.Fatalf("unit span %dµs, want >= 1ms", snap.Spans[0].DurUs)
	}
	if len(snap.Stages) != 1 || snap.Stages[0].Name != "rotate" || snap.Stages[0].Count != 3 {
		t.Fatalf("stages = %+v", snap.Stages)
	}
	if snap.Stages[0].TotalUs < 600 {
		t.Fatalf("rotate total %dµs, want >= 3x200µs", snap.Stages[0].TotalUs)
	}
	if totals := tr.StageTotals(); len(totals) != 1 || totals["rotate"].Microseconds() != snap.Stages[0].TotalUs {
		t.Fatalf("StageTotals %v, snapshot stages %+v", totals, snap.Stages)
	}
}

// TestStageEndShare: a stage run inside a fan of width w is charged a w-th
// of its time and still counts one sample; a width below one charges the
// whole time.
func TestStageEndShare(t *testing.T) {
	tr := NewTrace("fan")
	for _, width := range []int{4, 0} {
		mark := tr.StageStart()
		time.Sleep(2 * time.Millisecond)
		tr.StageEndShare(fmt.Sprint("w", width), mark, width)
		elapsed := time.Since(mark)
		got := tr.StageTotals()[fmt.Sprint("w", width)]
		share := time.Duration(max(width, 1))
		if got > elapsed/share || got < 2*time.Millisecond/share {
			t.Errorf("width %d: charged %v of %v elapsed, want a %d-th", width, got, elapsed, share)
		}
	}
	for _, s := range tr.Snapshot().Stages {
		if s.Count != 1 {
			t.Errorf("stage %q counted %d samples, want 1", s.Name, s.Count)
		}
	}
	var nilTrace *Trace
	nilTrace.StageEndShare("stage", time.Now(), 2)
}

// TestTraceSpanCap: traces stop growing at the span cap and count drops.
func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("cap")
	now := time.Now()
	for i := 0; i < maxSpansPerTrace+10; i++ {
		tr.AddSpan("s", now, now)
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != maxSpansPerTrace {
		t.Fatalf("spans = %d, want %d", len(snap.Spans), maxSpansPerTrace)
	}
	if snap.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", snap.Dropped)
	}
}

// TestTraceConcurrent: spans and stages recorded from many goroutines
// while another snapshots — the -race verdict is the assertion.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace("conc")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				now := time.Now()
				tr.AddSpan(fmt.Sprintf("g%d", g), now, now, [2]string{"i", "x"})
				mark := tr.StageStart()
				tr.StageEnd("stage", mark)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = tr.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	snap := tr.Snapshot()
	if snap.Stages[0].Count != 200 {
		t.Fatalf("stage count = %d, want 200", snap.Stages[0].Count)
	}
}

// TestContextRoundTrip: a span added through the context's trace lands on
// the trace WithTrace attached.
func TestContextRoundTrip(t *testing.T) {
	tr := NewTrace("ctx")
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context")
	}
	FromContext(ctx).AddSpan("work", time.Now(), time.Now())
	if n := len(tr.Snapshot().Spans); n != 1 {
		t.Fatalf("spans = %d, want 1", n)
	}
}

// TestTraceRing: bounded retention, ID lookup, newest-first Recent.
func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	var ids []string
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("t%d", i)
		ids = append(ids, id)
		r.Put(NewTrace(id))
	}
	if r.Get("t0") != nil || r.Get("t1") != nil {
		t.Fatal("evicted traces must not resolve")
	}
	for _, id := range ids[2:] {
		if r.Get(id) == nil {
			t.Fatalf("trace %s missing", id)
		}
	}
	recent := r.Recent(10)
	if len(recent) != 3 {
		t.Fatalf("Recent = %d traces, want 3", len(recent))
	}
	if recent[0].ID() != "t4" || recent[2].ID() != "t2" {
		t.Fatalf("Recent order: %s, %s, %s", recent[0].ID(), recent[1].ID(), recent[2].ID())
	}
}

// TestNewTraceID: IDs are 16 hex chars and do not trivially collide.
func TestNewTraceID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("ID %q not 16 chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %q", id)
		}
		seen[id] = true
	}
}
