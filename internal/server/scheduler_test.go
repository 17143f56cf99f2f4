package server

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/registry"
)

// newSchedServer builds a server with explicit scheduler options.
func newSchedServer(t testing.TB, opts Options) (*registry.Model, *Server, *httptest.Server) {
	t.Helper()
	model, err := registry.DemoModel(11, testLogN)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(opts, model)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return model, srv, ts
}

// pollStats waits until cond holds on the server's stats (bounded).
func pollStats(t *testing.T, srv *Server, cond func(Stats) bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond(srv.Stats()) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s (stats %+v)", what, srv.Stats())
}

// TestMultiSessionSharedBudget is the tentpole's concurrency test: K
// sessions flooded unevenly through one scheduler must all complete with
// correct per-session results (each session has its own keys — a crossed
// wire would decrypt to garbage), and observed parallelism must stay within
// the one shared worker budget.
func TestMultiSessionSharedBudget(t *testing.T) {
	const budget = 2
	model, srv, ts := newSchedServer(t, Options{MaxBatch: 4, Workers: budget, QueueDepth: 64})
	ctx := context.Background()

	const sessions = 4
	loads := [sessions]int{8, 2, 2, 2} // session 0 floods
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for si := 0; si < sessions; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sess, err := NewClient(ts.URL, nil).NewSession(ctx, int64(1000+si))
			if err != nil {
				errCh <- err
				return
			}
			var inner sync.WaitGroup
			for r := 0; r < loads[si]; r++ {
				inner.Add(1)
				go func(r int) {
					defer inner.Done()
					rng := rand.New(rand.NewSource(int64(si*100 + r)))
					x := make([]float64, model.InputDim)
					for i := range x {
						x[i] = rng.Float64()*2 - 1
					}
					got, err := sess.Infer(ctx, x)
					if err != nil {
						errCh <- err
						return
					}
					want := model.MLP.InferPlain(x)[:model.OutputDim]
					for i := range want {
						if d := got[i] - want[i]; d > 1e-3 || d < -1e-3 {
							t.Errorf("session %d req %d logit %d: %g vs %g", si, r, i, got[i], want[i])
							return
						}
					}
				}(r)
			}
			inner.Wait()
		}(si)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Workers != budget {
		t.Fatalf("resolved budget %d, want %d", st.Workers, budget)
	}
	if st.PeakInFlight > budget {
		t.Fatalf("peak parallelism %d exceeded the %d-worker budget", st.PeakInFlight, budget)
	}
	total := int64(0)
	for _, l := range loads {
		total += int64(l)
	}
	if st.UnitsRun != total {
		t.Fatalf("ran %d units, want %d", st.UnitsRun, total)
	}
	if st.Backlog != 0 {
		t.Fatalf("backlog %d after completion", st.Backlog)
	}
}

// floodThenVictim queues a burst on session A, then (once the backlog is
// deep) one request on session B, and returns B's completion time relative
// to A's last completion (negative: B finished first). Workers=1 makes unit
// execution strictly sequential, so the sign reflects dispatch order, not
// timing luck.
func floodThenVictim(t *testing.T) time.Duration {
	t.Helper()
	model, srv, ts := newSchedServer(t, Options{MaxBatch: 2, Workers: 1, QueueDepth: 64})
	ctx := context.Background()
	a, err := NewClient(ts.URL, nil).NewSession(ctx, 21)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewClient(ts.URL, nil).NewSession(ctx, 22)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, model.InputDim)
	for i := range x {
		x[i] = float64(i%5)/5 - 0.4
	}
	// Deep enough that a standing backlog remains once the whole flood has
	// been accepted and the victim's request (poll round-trip + client-side
	// encryption) lands.
	const flood = 16
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		aLastDone time.Time
	)
	for r := 0; r < flood; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.Infer(ctx, x); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			if now := time.Now(); now.After(aLastDone) {
				aLastDone = now
			}
			mu.Unlock()
		}()
	}
	// Wait until the server has accepted the whole flood (every job is
	// either still backlogged or has started running) while a deep backlog
	// remains behind the single worker. A flood request that arrived after
	// the victim would rightly finish after it, and make the
	// completion-order comparison below mean nothing.
	pollStats(t, srv, func(st Stats) bool {
		return st.UnitsRun+int64(st.Backlog) >= flood && st.Backlog >= flood/4
	}, "flood accepted with a standing backlog")
	if _, err := b.Infer(ctx, x); err != nil {
		t.Fatal(err)
	}
	bDone := time.Now()
	wg.Wait()
	return bDone.Sub(aLastDone)
}

// The fairness test compares client-side completion timestamps, which
// carry goroutine-wakeup jitter: the last flood goroutine can record its
// mark tens of microseconds after (or before) the victim's even when the
// server's dispatch order was unambiguous. A genuine inversion is separated
// by whole unit executions — many milliseconds with Workers=1 — so the test
// tolerates jitter up to policyJitter and only fails on a margin no
// scheduling artifact can produce.
const policyJitter = 10 * time.Millisecond

// TestFairPolicyServesVictimEarly: under the fair policy a single request
// from a quiet session overtakes a flooding session's backlog (it waits at
// most one quantum), so it completes well before the flood drains.
func TestFairPolicyServesVictimEarly(t *testing.T) {
	if d := floodThenVictim(t); d > policyJitter {
		t.Fatalf("victim finished %s after the flood; fair scheduling should serve it first", d)
	}
}

// TestDeadSessionJobsNeverRun is the batch-window lifecycle regression: a
// session deleted while its jobs wait out BatchWindow must fail those jobs
// immediately — the old per-session batcher lingered the full window and
// then ran paid inference for the dead session.
func TestDeadSessionJobsNeverRun(t *testing.T) {
	model, srv, ts := newSchedServer(t, Options{BatchWindow: time.Minute, Workers: 1})
	ctx := context.Background()
	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 77)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, model.InputDim)
	start := time.Now()
	inferErr := make(chan error, 1)
	go func() {
		_, err := sess.Infer(ctx, x)
		inferErr <- err
	}()
	pollStats(t, srv, func(st Stats) bool { return st.Backlog == 1 }, "queued job")
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-inferErr:
		if err == nil {
			t.Fatal("inference on a deleted session succeeded")
		}
		if !strings.Contains(err.Error(), "session closed") {
			t.Fatalf("want a session-closed failure, got: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("queued job still pending long after session deletion")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("job failed only after %s; must not wait out the batch window", elapsed)
	}
	pollStats(t, srv, func(st Stats) bool { return st.UnitsAborted == 1 }, "aborted unit")
	if st := srv.Stats(); st.UnitsRun != 0 {
		t.Fatalf("ran %d inference units for a dead session", st.UnitsRun)
	}
}

// TestInferLevelBoundary pins the true minimum ciphertext level: exactly
// ModelInfo.Levels succeeds end-to-end (one inference consumes exactly that
// many levels), one below is rejected at the boundary.
func TestInferLevelBoundary(t *testing.T) {
	model, _, ts := newSchedServer(t, Options{})
	ctx := context.Background()
	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 31)
	if err != nil {
		t.Fatal(err)
	}
	info := sess.Model()
	x := make([]float64, info.InputDim)
	for i := range x {
		x[i] = float64(i%3)/3 - 0.3
	}
	want := model.MLP.InferPlain(x)[:info.OutputDim]

	encryptAt := func(level int) *ckks.Ciphertext {
		vec := make([]float64, sess.params.Slots())
		copy(vec, x)
		pt, err := sess.enc.EncodeReals(vec, level, sess.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		return sess.encr.Encrypt(pt)
	}

	out, err := sess.InferCiphertext(ctx, encryptAt(info.Levels))
	if err != nil {
		t.Fatalf("inference at exactly %d levels must succeed: %v", info.Levels, err)
	}
	got := sess.enc.DecodeReals(sess.decr.Decrypt(out))
	for i := range want {
		if d := got[i] - want[i]; d > 1e-3 || d < -1e-3 {
			t.Fatalf("boundary-level logit %d: %g vs %g", i, got[i], want[i])
		}
	}

	if _, err := sess.InferCiphertext(ctx, encryptAt(info.Levels-1)); err == nil {
		t.Fatalf("inference at %d levels (one below the minimum) must be rejected", info.Levels-1)
	} else if !strings.Contains(err.Error(), "below") {
		t.Fatalf("want a level-boundary rejection, got: %v", err)
	}
}

// TestServerAcceptsMinimumChain: a parameter chain whose MaxLevel equals
// LevelsRequired is viable — clients encrypt at MaxLevel and land exactly
// at level 0 — and server.New must accept it (regression: it demanded one
// spare level and rejected such models).
func TestServerAcceptsMinimumChain(t *testing.T) {
	model, err := registry.DemoModel(11, testLogN)
	if err != nil {
		t.Fatal(err)
	}
	need := model.MLP.LevelsRequired()
	model.Params.LogQ = model.Params.LogQ[:need+1] // MaxLevel == need exactly
	srv, err := New(Options{}, model)
	if err != nil {
		t.Fatalf("minimum viable chain rejected: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	ctx := context.Background()
	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 41)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, model.InputDim)
	for i := range x {
		x[i] = float64(i%4)/4 - 0.4
	}
	got, err := sess.Infer(ctx, x)
	if err != nil {
		t.Fatalf("end-to-end inference on the minimum chain: %v", err)
	}
	want := model.MLP.InferPlain(x)[:model.OutputDim]
	for i := range want {
		if d := got[i] - want[i]; d > 1e-3 || d < -1e-3 {
			t.Fatalf("minimum-chain logit %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestOversizedBodies413: blowing the body cap is 413 Request Entity Too
// Large on both the infer and register endpoints, not a generic 400.
func TestOversizedBodies413(t *testing.T) {
	_, srv, ts := newSchedServer(t, Options{})
	ctx := context.Background()
	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 61)
	if err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, maxCiphertextBytes(srv.reg.List()[0].Params())+1024)
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sess.ID()+"/infer", "application/octet-stream", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ciphertext: got %s, want 413", resp.Status)
	}

	// Valid JSON that only blows the limit mid-stream, so the 413 cannot be
	// shadowed by a syntax 400.
	_, _, tsSmall := newSchedServer(t, Options{MaxBodyBytes: 1 << 16})
	big := []byte(`{"params":"` + strings.Repeat("A", 1<<17) + `"}`)
	resp, err = http.Post(tsSmall.URL+"/v1/sessions", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized registration: got %s, want 413", resp.Status)
	}
}

// TestSessionDeletedMidBatch: deleting a session after the scheduler has
// already claimed a quantum must stop the remaining claimed jobs from
// running — the dispatcher re-checks liveness before every submit, not
// just once per turn (regression: a dead session's whole claimed batch ran
// as paid inference while Submit blocked on the rendezvous pool).
func TestSessionDeletedMidBatch(t *testing.T) {
	model, err := registry.DemoModel(11, 9) // logN 9: ~100ms units, a wide delete window
	if err != nil {
		t.Fatal(err)
	}
	// The batch window lets the whole burst enqueue before the first turn
	// claims it, so the delete reliably lands mid-quantum: without it, a
	// slow-to-arrive burst can straggle in after the delete (404, nothing
	// claimed, nothing to abort) and the test flakes.
	srv, err := New(Options{MaxBatch: 16, Workers: 1, QueueDepth: 16, BatchWindow: 2 * time.Second}, model)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	ctx := context.Background()
	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 87)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, model.InputDim)
	const burst = 8
	var wg sync.WaitGroup
	var closedErrs, lateErrs atomic.Int64
	for r := 0; r < burst; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sess.Infer(ctx, x); err != nil {
				switch {
				case strings.Contains(err.Error(), "session closed"):
					closedErrs.Add(1)
				case strings.Contains(err.Error(), "unknown session"):
					// Sent after the delete removed the session: 404, never
					// enqueued, so it cannot settle as run or aborted.
					lateErrs.Add(1)
				default:
					t.Error(err)
				}
			}
		}()
	}
	// Wait for the full burst to queue (the batch window holds the first
	// turn), then delete as soon as the first unit starts: the rest of the
	// claimed quantum is still queued behind the single worker.
	pollStats(t, srv, func(st Stats) bool { return st.Backlog == burst }, "queued burst")
	pollStats(t, srv, func(st Stats) bool { return st.UnitsRun >= 1 }, "first unit")
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// Handlers answer 410 off sess.done before the dispatcher finishes
	// aborting its claimed batch; wait for every enqueued job to be
	// accounted for (late requests 404ed and never enqueued).
	enqueued := burst - int(lateErrs.Load())
	pollStats(t, srv, func(st Stats) bool { return int(st.UnitsRun+st.UnitsAborted) == enqueued }, "job settlement")
	st := srv.Stats()
	// At most the unit already running plus the one submit in flight may
	// still execute; the rest of the claimed quantum must be aborted.
	if st.UnitsRun >= burst {
		t.Fatalf("all %d units ran for a session deleted mid-batch", st.UnitsRun)
	}
	if st.UnitsAborted == 0 {
		t.Fatal("no claimed job was aborted after the mid-batch delete")
	}
	if closedErrs.Load() == 0 {
		t.Fatal("no request observed the session-closed failure")
	}
}

// TestWeightedSessionFillsQuantum is the weighted-window regression: a
// weight-w session's quantum is w×MaxBatch, but eligibility used to cut the
// batch window short at a 1× backlog — the session dispatched early and
// never filled the quantum it pays for. With the weight-aware threshold the
// whole burst must go out in one scheduler turn.
func TestWeightedSessionFillsQuantum(t *testing.T) {
	model, err := registry.DemoModel(11, testLogN)
	if err != nil {
		t.Fatal(err)
	}
	const window = 3 * time.Second
	srv, err := New(Options{
		MaxBatch:    2,
		Workers:     1,
		QueueDepth:  64,
		BatchWindow: window,
		Weight:      func(*http.Request) int { return 2 }, // quantum 4
	}, model)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	ctx := context.Background()
	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 73)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, model.InputDim)
	start := time.Now()
	var wg sync.WaitGroup
	infer := func(n int) {
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := sess.Infer(ctx, x); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	// Two jobs first — a 1× backlog, which must NOT cut the window short —
	// then the rest of the quantum a beat later.
	infer(2)
	pollStats(t, srv, func(st Stats) bool { return st.Backlog == 2 }, "half quantum queued")
	if st := srv.Stats(); st.Quanta != 0 {
		t.Fatalf("scheduler took a turn on a half-filled weighted quantum (%d quanta)", st.Quanta)
	}
	infer(2)
	wg.Wait()
	elapsed := time.Since(start)
	st := srv.Stats()
	if st.Quanta != 1 {
		t.Fatalf("weighted burst took %d scheduler turns, want 1 full-quantum turn", st.Quanta)
	}
	if st.UnitsRun != 4 {
		t.Fatalf("ran %d units, want 4", st.UnitsRun)
	}
	// The full quantum arriving is what ended the wait — not the window.
	if elapsed >= window {
		t.Fatalf("burst took %s; a full quantum must cut the %s window short", elapsed, window)
	}
}

// TestBacklogCountsClaimedJobs is the stats regression: jobs the dispatcher
// has claimed off the session queue but not yet pushed through the
// zero-depth pool rendezvous were invisible to Stats.Backlog, so /v1/stats
// could report 0 with a whole quantum still waiting for workers.
func TestBacklogCountsClaimedJobs(t *testing.T) {
	model, err := registry.DemoModel(11, 9) // logN 9: ~100ms units hold the worker
	if err != nil {
		t.Fatal(err)
	}
	// One worker, a quantum larger than the burst (so only the window — not
	// a full quantum — starts the turn, and the burst reliably queues in
	// whole before the single turn claims it all).
	const burst = 8
	srv, err := New(Options{MaxBatch: 2 * burst, Workers: 1, QueueDepth: 16, BatchWindow: 2 * time.Second}, model)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	ctx := context.Background()
	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 74)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, model.InputDim)
	var wg sync.WaitGroup
	for r := 0; r < burst; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sess.Infer(ctx, x); err != nil {
				t.Error(err)
			}
		}()
	}
	pollStats(t, srv, func(st Stats) bool { return st.Backlog == burst }, "queued burst")
	// Once the first unit runs, the dispatcher has claimed the entire
	// quantum: the session queue is empty, yet most of the burst has not
	// reached a worker. The snapshot must still show it pending.
	pollStats(t, srv, func(st Stats) bool { return st.UnitsRun >= 1 }, "first unit")
	st := srv.Stats()
	if int(st.UnitsRun) >= burst {
		t.Skip("units drained before a snapshot could observe the claimed quantum")
	}
	if st.Backlog == 0 {
		t.Fatal("backlog reports 0 while claimed jobs wait for the saturated worker")
	}
	if len(st.Models) != 1 || st.Models[0].Backlog != st.Backlog {
		t.Fatalf("per-model backlog %+v disagrees with total %d", st.Models, st.Backlog)
	}
	wg.Wait()
	pollStats(t, srv, func(st Stats) bool { return st.Backlog == 0 }, "drained backlog")
}
