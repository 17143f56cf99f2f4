package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/registry"
)

// shapedModel builds a frozen MLP with an arbitrary in→hidden→out shape so
// multi-model tests can serve structurally different networks side by side
// (a crossed wire between models of different shapes fails loudly).
func shapedModel(t testing.TB, name string, seed int64, in, hidden, out int) *registry.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	newLinear := func(in, out int) *henn.Linear {
		l := &henn.Linear{In: in, Out: out, B: make([]float64, out), W: make([][]float64, out)}
		for i := range l.W {
			l.W[i] = make([]float64, in)
			for j := range l.W[i] {
				l.W[i][j] = rng.NormFloat64() * 0.4
			}
			l.B[i] = rng.NormFloat64() * 0.1
		}
		return l
	}
	mlp := &henn.MLP{Layers: []any{
		newLinear(in, hidden),
		&henn.Activation{PAF: paf.MustNew(paf.FormF1G2), Scale: 4},
		newLinear(hidden, out),
	}}
	lit, err := registry.ParamsForMLP(mlp, testLogN)
	if err != nil {
		t.Fatal(err)
	}
	return &registry.Model{Name: name, MLP: mlp, Params: lit, InputDim: in, OutputDim: out}
}

// inferAndCheck runs one encrypted inference and compares against the
// model's plaintext reference.
func inferAndCheck(t testing.TB, ctx context.Context, sess *Session, m *registry.Model, seed int64) error {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, m.InputDim)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	got, err := sess.Infer(ctx, x)
	if err != nil {
		return err
	}
	want := m.MLP.InferPlain(x)[:m.OutputDim]
	if len(got) != len(want) {
		t.Errorf("model %q: got %d logits, want %d", m.Name, len(got), len(want))
		return nil
	}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-3 || d < -1e-3 {
			t.Errorf("model %q logit %d: encrypted %g vs plain %g", m.Name, i, got[i], want[i])
			return nil
		}
	}
	return nil
}

// TestMultiModelEndToEnd is the tentpole's core property: one server and one
// worker budget serving two structurally different models, with interleaved
// sessions each getting results that match their own model's reference.
func TestMultiModelEndToEnd(t *testing.T) {
	alpha := shapedModel(t, "alpha", 21, 16, 8, 4)
	beta := shapedModel(t, "beta", 22, 12, 6, 3)
	srv, err := New(Options{Workers: 2}, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	ctx := context.Background()
	client := NewClient(ts, nil)

	infos, err := client.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "beta" {
		t.Fatalf("catalog %+v, want [alpha beta]", infos)
	}

	models := []*registry.Model{alpha, beta}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for si := 0; si < 4; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			m := models[si%2]
			sess, err := client.NewSessionFor(ctx, m.Name, int64(3000+si))
			if err != nil {
				errCh <- err
				return
			}
			for r := 0; r < 3; r++ {
				if err := inferAndCheck(t, ctx, sess, m, int64(si*10+r)); err != nil {
					errCh <- fmt.Errorf("session %d (%s): %w", si, m.Name, err)
					return
				}
			}
		}(si)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := srv.Stats()
	if st.PeakInFlight > 2 {
		t.Fatalf("peak parallelism %d exceeded the shared 2-worker budget", st.PeakInFlight)
	}
	if len(st.Models) != 2 {
		t.Fatalf("stats cover %d models, want 2", len(st.Models))
	}
	for _, ms := range st.Models {
		if ms.UnitsRun != 6 {
			t.Fatalf("model %q ran %d units, want 6", ms.Name, ms.UnitsRun)
		}
	}
}

// newHTTPServer wires a Server into httptest with cleanup.
func newHTTPServer(t testing.TB, srv *Server) string {
	t.Helper()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs.URL
}

// TestModelSelectionRules pins the registration-routing contract.
func TestModelSelectionRules(t *testing.T) {
	alpha := shapedModel(t, "alpha", 31, 16, 8, 4)
	beta := shapedModel(t, "beta", 32, 12, 6, 3)
	srv, err := New(Options{}, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	ctx := context.Background()
	client := NewClient(ts, nil)

	// NewSession picks the sole live model, so two deployed is ambiguous.
	if _, err := client.NewSession(ctx, 1); err == nil || !strings.Contains(err.Error(), "2 models deployed; use NewSessionFor") {
		t.Fatalf("ambiguous NewSession: got %v, want the two-models error", err)
	}
	// Unknown model name 404s at info fetch.
	if _, err := client.NewSessionFor(ctx, "gamma", 1); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown model: got %v, want 404", err)
	}
	// The server has no default model: a registration that names no model
	// is for an unknown model.
	frame := marshalFrame(registration{Params: srv.reg.List()[0].ParamBytes()})
	resp, err := http.Post(ts+"/v1/sessions", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "unknown model") {
		t.Fatalf("nameless registration: got %s %s, want 404 unknown model", resp.Status, body)
	}
	// Named registration works for both.
	if _, err := client.NewSessionFor(ctx, "alpha", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := client.NewSessionFor(ctx, "beta", 3); err != nil {
		t.Fatal(err)
	}
}

// TestHotDeployAndRetireMidTraffic is the lifecycle acceptance test: a third
// model is deployed over HTTP while traffic flows, a model is retired mid-
// backlog — its queued jobs fail 410, later requests 404, re-deploying the
// name works, and the retired stack drains (frees) without a panic.
func TestHotDeployAndRetireMidTraffic(t *testing.T) {
	alpha := shapedModel(t, "alpha", 41, 16, 8, 4)
	beta := shapedModel(t, "beta", 42, 12, 6, 3)
	srv, err := New(Options{Workers: 1, QueueDepth: 64}, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	ctx := context.Background()
	client := NewClient(ts, nil)

	alphaSess, err := client.NewSessionFor(ctx, "alpha", 51)
	if err != nil {
		t.Fatal(err)
	}
	betaSess, err := client.NewSessionFor(ctx, "beta", 52)
	if err != nil {
		t.Fatal(err)
	}

	// Build a standing alpha backlog behind the single worker.
	x := make([]float64, alpha.InputDim)
	const flood = 10
	var wg sync.WaitGroup
	var gone, ran atomic.Int64
	for r := 0; r < flood; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := alphaSess.Infer(ctx, x); err != nil {
				switch {
				case strings.Contains(err.Error(), "session closed"):
					gone.Add(1)
				case strings.Contains(err.Error(), "unknown session"):
					// Still encrypting client-side when the retire landed:
					// the session was already gone, which is a 404, not a
					// queued job failing 410.
				default:
					t.Error(err)
				}
				return
			}
			ran.Add(1)
		}()
	}
	pollStats(t, srv, func(st Stats) bool { return st.Backlog >= flood/2 }, "alpha backlog")

	// Hot-deploy gamma over HTTP while the flood queues...
	gamma := shapedModel(t, "gamma", 43, 10, 5, 2)
	info, err := client.Deploy(ctx, gamma)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "gamma" || srv.Registry().Len() != 3 {
		t.Fatalf("deploy response %+v, registry size %d", info, srv.Registry().Len())
	}
	// ...and duplicate deploys conflict.
	if _, err := client.Deploy(ctx, gamma); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("duplicate deploy: got %v, want 409", err)
	}

	// The hot-deployed model serves immediately.
	gammaSess, err := client.NewSessionFor(ctx, "gamma", 53)
	if err != nil {
		t.Fatal(err)
	}
	if err := inferAndCheck(t, ctx, gammaSess, gamma, 1); err != nil {
		t.Fatal(err)
	}

	// Session registration and inference on gamma may have given the single
	// worker time to drain the first flood; queue a fresh alpha burst so the
	// retire lands on a standing backlog.
	for r := 0; r < flood; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := alphaSess.Infer(ctx, x); err != nil {
				switch {
				case strings.Contains(err.Error(), "session closed"):
					gone.Add(1)
				case strings.Contains(err.Error(), "unknown session"):
					// Still encrypting client-side when the retire landed:
					// the session was already gone, which is a 404, not a
					// queued job failing 410.
				default:
					t.Error(err)
				}
				return
			}
			ran.Add(1)
		}()
	}
	pollStats(t, srv, func(st Stats) bool { return st.Backlog >= flood/2 }, "standing alpha backlog")

	// Retire alpha mid-backlog: queued jobs must fail 410 now.
	dep, _ := srv.Registry().Resolve("alpha")
	if err := client.Retire(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if gone.Load() == 0 {
		t.Fatal("no alpha request observed the 410 session-closed failure")
	}
	// Later requests on the dead session are 404 (session is gone), and new
	// registrations against the retired name 404 too.
	if _, err := alphaSess.Infer(ctx, x); err == nil {
		t.Fatal("inference on a retired model's session succeeded")
	}
	if _, err := client.NewSessionFor(ctx, "alpha", 54); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("registration against a retired model: got %v, want 404", err)
	}
	// The retired version left the catalog at once, and closing its
	// session released the stack.
	if _, ok := srv.Registry().Resolve(dep.Ref()); ok || dep.Refs() != 0 {
		t.Fatalf("retired alpha still cataloged (%v) or bound (%d refs)", ok, dep.Refs())
	}
	// Retiring an unknown name is 404.
	if err := client.Retire(ctx, "alpha"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("double retire: got %v, want 404", err)
	}

	// The name can be redeployed and serves again.
	if _, err := client.Deploy(ctx, shapedModel(t, "alpha", 44, 16, 8, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.NewSessionFor(ctx, "alpha", 55); err != nil {
		t.Fatal(err)
	}
	// Beta traffic was never disturbed.
	if err := inferAndCheck(t, ctx, betaSess, beta, 2); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentModelChurn exercises deploy/retire/register/infer races
// across models under -race: churn goroutines cycle short-lived models while
// steady sessions on two stable models keep inferring correctly.
func TestConcurrentModelChurn(t *testing.T) {
	alpha := shapedModel(t, "alpha", 61, 16, 8, 4)
	beta := shapedModel(t, "beta", 62, 12, 6, 3)
	srv, err := New(Options{Workers: 2, QueueDepth: 64}, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	ctx := context.Background()
	client := NewClient(ts, nil)

	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	for g := 0; g < 2; g++ {
		churnWG.Add(1)
		go func(g int) {
			defer churnWG.Done()
			m := shapedModel(t, fmt.Sprintf("churn-%d", g), int64(70+g), 8, 4, 2)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := client.Deploy(ctx, m); err != nil {
					t.Error(err)
					return
				}
				// Every other cycle binds a session and runs one inference
				// before the model dies, covering the retire-with-traffic
				// path; the other cycles retire a bound-but-idle model.
				sess, err := client.NewSessionFor(ctx, m.Name, int64(i))
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := inferAndCheck(t, ctx, sess, m, int64(i)); err != nil {
						t.Error(err)
						return
					}
				}
				if err := client.Retire(ctx, m.Name); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	models := []*registry.Model{alpha, beta}
	var wg sync.WaitGroup
	for si := 0; si < 2; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			m := models[si]
			sess, err := client.NewSessionFor(ctx, m.Name, int64(80+si))
			if err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < 4; r++ {
				if err := inferAndCheck(t, ctx, sess, m, int64(r)); err != nil {
					t.Error(err)
					return
				}
			}
		}(si)
	}
	wg.Wait()
	close(stop)
	churnWG.Wait()

	if st := srv.Stats(); st.PeakInFlight > st.Workers {
		t.Fatalf("peak parallelism %d exceeded the %d-worker budget", st.PeakInFlight, st.Workers)
	}
}

// TestStatsEndpoint covers GET /v1/stats: the JSON snapshot carries the
// scheduler counters and the per-model breakdown.
func TestStatsEndpoint(t *testing.T) {
	alpha := shapedModel(t, "alpha", 91, 16, 8, 4)
	beta := shapedModel(t, "beta", 92, 12, 6, 3)
	srv, err := New(Options{Workers: 2}, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	ctx := context.Background()
	client := NewClient(ts, nil)

	sess, err := client.NewSessionFor(ctx, "alpha", 93)
	if err != nil {
		t.Fatal(err)
	}
	if err := inferAndCheck(t, ctx, sess, alpha, 1); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats endpoint: got %s, want 200", resp.Status)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 {
		t.Fatalf("stats workers %d, want 2", st.Workers)
	}
	if st.UnitsRun < 1 {
		t.Fatalf("stats unitsRun %d, want >= 1", st.UnitsRun)
	}
	if len(st.Models) != 2 {
		t.Fatalf("stats cover %d models, want 2", len(st.Models))
	}
	byName := map[string]ModelStats{}
	for _, ms := range st.Models {
		byName[ms.Name] = ms
	}
	if a := byName["alpha"]; a.Sessions != 1 || a.UnitsRun != 1 {
		t.Fatalf("alpha stats %+v, want 1 session and 1 unit", a)
	}
	if b := byName["beta"]; b.Sessions != 0 || b.UnitsRun != 0 {
		t.Fatalf("beta stats %+v, want no activity", b)
	}

	// The client helper decodes the same payload.
	cst, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cst.Workers != 2 || len(cst.Models) != 2 {
		t.Fatalf("client stats %+v", cst)
	}
}
