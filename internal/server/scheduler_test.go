package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
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
	model, srv, ts := newSchedServer(t, Options{Workers: budget, QueueDepth: 64})
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
	model, srv, ts := newSchedServer(t, Options{Workers: 1})
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

// TestFairPolicyServesVictimEarly: with one job per session turn, a single
// request from a quiet session overtakes a flooding session's backlog (it
// waits behind at most one flood job), so it completes well before the flood
// drains.
func TestFairPolicyServesVictimEarly(t *testing.T) {
	if d := floodThenVictim(t); d > policyJitter {
		t.Fatalf("victim finished %s after the flood; fair scheduling should serve it first", d)
	}
}

// holdWorker parks the next unit to rescale inside the CKKS stage observer
// until release is called, and with it every other unit that rescales
// meanwhile (sync.Once holds concurrent callers until the first returns).
// Clients never rescale, so only workers are caught. started is closed once
// a worker is held.
func holdWorker(t *testing.T) (started <-chan struct{}, release func()) {
	t.Helper()
	held, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	ckks.SetStageObserver(func(stage string, _ time.Duration) {
		if stage == "rescale" {
			once.Do(func() {
				close(held)
				<-gate
			})
		}
	})
	release = sync.OnceFunc(func() { close(gate) })
	// Registered after the server's cleanup, so it runs first: the held
	// worker must finish before Close waits for it.
	t.Cleanup(func() {
		release()
		ckks.SetStageObserver(nil)
	})
	return held, release
}

// TestDeadSessionJobsNeverRun: a session deleted while its job waits in
// the queue fails that job at once, and the job never runs as paid
// inference. Another session's unit holds the single worker, so the
// victim's job is still queued when the session goes; while it waits it is
// the whole backlog, overall and per model.
func TestDeadSessionJobsNeverRun(t *testing.T) {
	model, srv, ts := newSchedServer(t, Options{Workers: 1})
	ctx := context.Background()
	client := NewClient(ts.URL, nil)
	holder, err := client.NewSession(ctx, 76)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := client.NewSession(ctx, 77)
	if err != nil {
		t.Fatal(err)
	}

	started, releaseWorker := holdWorker(t)
	x := make([]float64, model.InputDim)
	holderErr := make(chan error, 1)
	go func() {
		_, err := holder.Infer(ctx, x)
		holderErr <- err
	}()
	select {
	case <-started:
	case <-time.After(15 * time.Second):
		t.Fatal("the holder's unit never reached the worker")
	}
	if st := srv.Stats(); st.UnitsRun != 1 || st.Backlog != 0 {
		t.Fatalf("holder's unit running: %d units run, backlog %d; want 1 and 0", st.UnitsRun, st.Backlog)
	}

	victimErr := make(chan error, 1)
	go func() {
		_, err := victim.Infer(ctx, x)
		victimErr <- err
	}()
	pollStats(t, srv, func(st Stats) bool { return st.Backlog == 1 }, "victim job queued")
	if st := srv.Stats(); len(st.Models) != 1 || st.Models[0].Backlog != 1 {
		t.Fatalf("per-model backlog %+v, want the one queued job", st.Models)
	}
	if err := victim.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// The worker is still held: the failure cannot wait for a turn.
	select {
	case err := <-victimErr:
		if err == nil {
			t.Fatal("inference on a deleted session succeeded")
		}
		if !strings.Contains(err.Error(), "session closed") {
			t.Fatalf("want a session-closed failure, got: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("queued job still pending long after session deletion")
	}

	releaseWorker()
	if err := <-holderErr; err != nil {
		t.Fatal(err)
	}
	pollStats(t, srv, func(st Stats) bool { return st.UnitsAborted == 1 }, "aborted unit")
	if st := srv.Stats(); st.UnitsRun != 1 || st.Backlog != 0 {
		t.Fatalf("ran %d inference units with backlog %d, want only the live session's 1 and 0", st.UnitsRun, st.Backlog)
	}
}

// TestInferQueueFull429: a session's queue holds QueueDepth jobs beside the
// one its worker runs. With one worker held on the first request and the
// second queued, the third finds the queue full and answers 429 at once;
// the first two then answer with the plaintext model's prediction.
func TestInferQueueFull429(t *testing.T) {
	model, srv, ts := newSchedServer(t, Options{Workers: 1, QueueDepth: 1})
	ctx := context.Background()
	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 78)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(78))
	var inputs [2][]float64
	for i := range inputs {
		inputs[i] = make([]float64, model.InputDim)
		for j := range inputs[i] {
			inputs[i][j] = rng.Float64()*2 - 1
		}
	}
	type answer struct {
		logits []float64
		err    error
	}
	var answers [2]chan answer
	infer := func(i int) {
		answers[i] = make(chan answer, 1)
		go func() {
			logits, err := sess.Infer(ctx, inputs[i])
			answers[i] <- answer{logits, err}
		}()
	}

	started, releaseWorker := holdWorker(t)
	infer(0)
	select {
	case <-started:
	case <-time.After(15 * time.Second):
		t.Fatal("the first request never reached the worker")
	}
	infer(1)
	pollStats(t, srv, func(st Stats) bool { return st.Backlog == 1 }, "the second request queued")
	// A door that waited for room would hold this request until the worker
	// is released, which happens only after it answers.
	third, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := sess.Infer(third, inputs[0]); err == nil || !strings.Contains(err.Error(), "session queue full") || !strings.Contains(err.Error(), "429") {
		t.Fatalf("third request with the worker held and the queue full: got %v, want 429 session queue full", err)
	}

	releaseWorker()
	for i, ch := range answers {
		a := <-ch
		if a.err != nil {
			t.Fatalf("request %d: %v", i, a.err)
		}
		if want := model.MLP.InferPlain(inputs[i])[:model.OutputDim]; argmax(a.logits) != argmax(want) {
			t.Errorf("request %d: encrypted argmax %d, plaintext %d", i, argmax(a.logits), argmax(want))
		}
	}
	if st := srv.Stats(); st.UnitsRun != 2 || st.UnitsAborted != 0 {
		t.Fatalf("%d units run and %d aborted, want 2 and 0", st.UnitsRun, st.UnitsAborted)
	}
}

// TestIdleWorkersShareOneSession: with two workers idle, one session's two
// jobs run at once (hennbench's linear_heavy is one session with two
// clients): a session whose job is running stays open to the next idle
// worker. Both units are held inside the stage observer until the peak is
// seen.
func TestIdleWorkersShareOneSession(t *testing.T) {
	model, srv, ts := newSchedServer(t, Options{Workers: 2})
	ctx := context.Background()
	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 78)
	if err != nil {
		t.Fatal(err)
	}
	_, releaseWorkers := holdWorker(t)
	x := make([]float64, model.InputDim)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sess.Infer(ctx, x); err != nil {
				t.Error(err)
			}
		}()
	}
	pollStats(t, srv, func(st Stats) bool { return st.PeakInFlight == 2 }, "both jobs running on the two workers")
	releaseWorkers()
	wg.Wait()
	if st := srv.Stats(); st.UnitsRun != 2 {
		t.Fatalf("ran %d units, want 2", st.UnitsRun)
	}
}

// TestSessionDeletedMidBatch: deleting a session while a burst of its jobs
// is being served stops the rest from running as paid inference. A burst
// queues behind one worker; once the first unit starts, the session is
// deleted. Only units that passed the worker's liveness check before the
// delete may still execute (at most one beyond the count read just after
// it); every other job fails 410 and counts as aborted.
func TestSessionDeletedMidBatch(t *testing.T) {
	model, err := registry.DemoModel(11, 9) // logN 9: units long enough to delete behind
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Workers: 1}, model)
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
	// Encrypt up front so the burst reaches the server together, well
	// inside the first unit.
	const burst = 8
	var cts [burst]*ckks.Ciphertext
	for r := range cts {
		pt, err := sess.enc.EncodeReals(make([]float64, sess.params.Slots()), sess.params.MaxLevel(), sess.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		cts[r] = sess.encr.Encrypt(pt)
	}
	var wg sync.WaitGroup
	var answered, closedErrs, lateErrs atomic.Int64
	for _, ct := range cts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sess.InferCiphertext(ctx, ct)
			switch {
			case err == nil:
				answered.Add(1)
			case strings.Contains(err.Error(), "session closed"):
				closedErrs.Add(1)
			case strings.Contains(err.Error(), "unknown session"):
				// Arrived after the delete: 404, never enqueued.
				lateErrs.Add(1)
			default:
				t.Error(err)
			}
		}()
	}
	pollStats(t, srv, func(st Stats) bool {
		return st.UnitsRun >= 1 && int(st.UnitsRun)+st.Backlog >= burst
	}, "burst accepted, first unit running")
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// From here no taken job passes the worker's liveness check; one that
	// passed it just before the delete may not be counted yet.
	ranAtDelete := srv.Stats().UnitsRun
	wg.Wait()
	// Handlers answer 410 off sess.done before the worker's next turn for
	// the session aborts its queue; wait for every enqueued job to settle.
	enqueued := burst - lateErrs.Load()
	pollStats(t, srv, func(st Stats) bool { return st.UnitsRun+st.UnitsAborted == enqueued }, "job settlement")
	st := srv.Stats()
	if st.UnitsRun > ranAtDelete+1 {
		t.Fatalf("%d units ran for a session deleted after %d; only one already past the liveness check may follow", st.UnitsRun, ranAtDelete)
	}
	if answered.Load() > st.UnitsRun {
		t.Fatalf("%d requests answered but only %d units ran", answered.Load(), st.UnitsRun)
	}
	if got, want := closedErrs.Load(), enqueued-answered.Load(); got != want {
		t.Fatalf("%d enqueued requests failed 410, want %d", got, want)
	}
}

// TestInferLevelBoundary pins the one admitted input level: the prescribed
// literal's top level succeeds end-to-end, one below is a 400. The demo
// chain has no spare level, so one below is also below the levels one
// inference consumes.
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

	top := sess.params.MaxLevel()
	out, err := sess.InferCiphertext(ctx, encryptAt(top))
	if err != nil {
		t.Fatalf("inference at the top level %d must succeed: %v", top, err)
	}
	got := sess.enc.DecodeReals(sess.decr.Decrypt(out))
	for i := range want {
		if d := got[i] - want[i]; d > 1e-3 || d < -1e-3 {
			t.Fatalf("top-level logit %d: %g vs %g", i, got[i], want[i])
		}
	}

	if _, err := sess.InferCiphertext(ctx, encryptAt(top-1)); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("inference at level %d (one below the top) must be a 400, got: %v", top-1, err)
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

// TestOversizedBodies413: blowing a body cap is 413 Request Entity Too
// Large, not a generic 400, for a ciphertext and for a deploy bundle.
func TestOversizedBodies413(t *testing.T) {
	_, srv, ts := newSchedServer(t, Options{})
	ctx := context.Background()
	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 61)
	if err != nil {
		t.Fatal(err)
	}
	params := srv.reg.List()[0].Params()
	huge := make([]byte, params.CiphertextWireSize(params.MaxLevel())+1024)
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sess.ID()+"/infer", "application/octet-stream", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ciphertext: got %s, want 413", resp.Status)
	}

	// readBody bounds admin deploy bundles (at maxBundleBytes), the one body
	// no model sizes: a bundle past its limit is a 413 mid-stream, before
	// any decode could answer 400. (Registrations are sized by their model;
	// see TestRegisterRejectsHostileFrames.)
	big := make([]byte, 1<<17)
	binary.LittleEndian.PutUint32(big, 0x5AF7CC08) // registry bundle magic
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/models", bytes.NewReader(big))
	if _, ok := readBody(rec, req, 1<<16, "model bundle"); ok || rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized deploy bundle: got %d, want 413", rec.Code)
	}
}

// TestNoUnitOnFreedStack: a worker that takes a job of a session whose
// model was retired and freed in the meantime aborts it: no unit runs (no
// CKKS stage) and UnitsAborted goes up by one.
func TestNoUnitOnFreedStack(t *testing.T) {
	model, srv, ts := newSchedServer(t, Options{Workers: 1})
	ctx := context.Background()
	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 91)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Infer(ctx, make([]float64, model.InputDim)); err != nil {
		t.Fatal(err)
	}
	live := srv.lookup(sess.ID())
	dep := live.dep
	if err := srv.retireModel(dep.Ref()); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.Registry().Resolve(dep.Ref()); ok || dep.Refs() != 0 {
		t.Fatalf("retired stack still cataloged (%v) or bound (%d refs)", ok, dep.Refs())
	}

	pt, err := sess.enc.EncodeReals(make([]float64, sess.params.Slots()), sess.params.MaxLevel(), sess.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	job := &inferJob{ct: sess.encr.Encrypt(pt), done: make(chan inferResult, 1), enqueuedAt: time.Now()}
	var stages atomic.Int64
	ckks.SetStageObserver(func(string, time.Duration) { stages.Add(1) })
	defer ckks.SetStageObserver(nil)
	before := srv.Stats()
	srv.sched.serve(live, job)

	if res := <-job.done; !errors.Is(res.err, errSessionClosed) {
		t.Fatalf("job on a freed stack: got %v, want %v", res.err, errSessionClosed)
	}
	st := srv.Stats()
	if st.UnitsRun != before.UnitsRun || st.UnitsAborted != before.UnitsAborted+1 {
		t.Fatalf("units run %d → %d, aborted %d → %d; want no run and one abort",
			before.UnitsRun, st.UnitsRun, before.UnitsAborted, st.UnitsAborted)
	}
	if n := stages.Load(); n != 0 {
		t.Fatalf("%d CKKS stages ran on the freed stack", n)
	}
}

// TestCloseMidBurst: Close in the middle of a burst on one worker fails
// every queued request 503 at once while the running unit finishes and
// answers, settles every accepted job as run or aborted, and leaves no
// goroutine behind.
func TestCloseMidBurst(t *testing.T) {
	model, err := registry.DemoModel(11, testLogN)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	srv, err := New(Options{Workers: 1}, model)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	ctx := context.Background()
	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 93)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 6
	var cts [burst]*ckks.Ciphertext
	for r := range cts {
		pt, err := sess.enc.EncodeReals(make([]float64, sess.params.Slots()), sess.params.MaxLevel(), sess.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		cts[r] = sess.encr.Encrypt(pt)
	}

	started, releaseWorker := holdWorker(t)
	// Cancelled first if the test fails, so a request the server never
	// answers cannot hold the cleanup's ts.Close.
	reqCtx, cancel := context.WithCancel(ctx)
	t.Cleanup(cancel)
	var wg sync.WaitGroup
	var answered, unavailable atomic.Int64
	for _, ct := range cts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sess.InferCiphertext(reqCtx, ct)
			switch {
			case err == nil:
				answered.Add(1)
			case reqCtx.Err() != nil:
				// Cancelled by a failed test's cleanup.
			case strings.Contains(err.Error(), "503"):
				unavailable.Add(1)
			default:
				t.Error(err)
			}
		}()
	}
	select {
	case <-started:
	case <-time.After(15 * time.Second):
		t.Fatal("no unit reached the worker")
	}
	pollStats(t, srv, func(st Stats) bool { return st.Backlog == burst-1 }, "rest of the burst queued")
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	// The worker is still held: queued requests cannot wait for it.
	deadline := time.Now().Add(15 * time.Second)
	for unavailable.Load() < burst-1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d queued requests failed 503 while the worker was held", unavailable.Load(), burst-1)
		}
		time.Sleep(time.Millisecond)
	}
	releaseWorker()
	<-closed
	wg.Wait()

	st := srv.Stats()
	if answered.Load() != 1 || st.UnitsRun != 1 || st.UnitsAborted != burst-1 {
		t.Fatalf("%d answered, %d units run, %d aborted; want the running unit to answer and %d queued jobs aborted",
			answered.Load(), st.UnitsRun, st.UnitsAborted, burst-1)
	}
	ts.Close()
	deadline = time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before New:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
