package server

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSupersedeDrainEndToEnd is the versioned-rollout acceptance path over
// HTTP: a supersede lands while two v1 sessions keep up continuous
// concurrent traffic. No request fails, and every answer matches its own
// version's reference — a crossed wire would answer v1 sessions with v2's
// weights. New registrations bind v2, exact v1 registrations 410, the
// catalog reports the drain, and the v1 stack frees once its last session
// closes.
func TestSupersedeDrainEndToEnd(t *testing.T) {
	v1 := shapedModel(t, "alpha", 101, 16, 8, 4)
	v2 := shapedModel(t, "alpha", 102, 16, 8, 4) // same shape, different weights
	srv, err := New(Options{Workers: 2}, v1)
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	ctx := context.Background()
	client := NewClient(ts, nil)

	// Two v1 sessions, each looping requests until told to stop.
	const oldSessions = 2
	var (
		oldSess  [oldSessions]*Session
		served   [oldSessions]atomic.Int64
		failures atomic.Int64
		traffic  sync.WaitGroup
		stop     = make(chan struct{})
	)
	stopTraffic := sync.OnceFunc(func() {
		close(stop)
		traffic.Wait()
	})
	defer stopTraffic() // also on a failed check, before the test returns
	for i := range oldSess {
		if oldSess[i], err = client.NewSessionFor(ctx, "alpha", int64(111+i)); err != nil {
			t.Fatal(err)
		}
		if got := oldSess[i].Model().Version; got != 1 {
			t.Fatalf("first deploy served version %d, want 1", got)
		}
		traffic.Add(1)
		go func(i int) {
			defer traffic.Done()
			for r := int64(0); ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := inferAndCheck(t, ctx, oldSess[i], v1, int64(i)<<16|r); err != nil {
					failures.Add(1)
					t.Errorf("v1 session %d request %d: %v", i, r, err)
				}
				served[i].Add(1)
			}
		}(i)
	}
	// waitServed blocks until every v1 session has answered n requests.
	waitServed := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for i := range served {
			for served[i].Load() < n {
				if time.Now().After(deadline) {
					t.Fatalf("v1 session %d answered %d requests, want %d", i, served[i].Load(), n)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	waitServed(1)

	dep1, ok := srv.Registry().Resolve("alpha@1")
	if !ok {
		t.Fatal("alpha@1 not resolvable before the supersede")
	}
	info2, err := client.Supersede(ctx, v2)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Version != 2 {
		t.Fatalf("supersede published version %d, want 2", info2.Version)
	}
	after := [oldSessions]int64{served[0].Load(), served[1].Load()}

	// New registrations on the bare name — and NewSession, which picks the
	// sole live version — land on v2 and answer with v2's weights while v1
	// traffic is still in flight.
	newSess, err := client.NewSessionFor(ctx, "alpha", 112)
	if err != nil {
		t.Fatal(err)
	}
	anySess, err := client.NewSession(ctx, 114)
	if err != nil {
		t.Fatalf("NewSession with one live + one draining version: %v", err)
	}
	for _, sess := range []*Session{newSess, anySess} {
		if got := sess.Model().Version; got != 2 {
			t.Fatalf("post-supersede registration bound version %d, want 2", got)
		}
		if err := inferAndCheck(t, ctx, sess, v2, 3); err != nil {
			t.Fatal(err)
		}
	}
	// Pinning the draining version is a clean 410, not a silent rebind.
	if _, err := client.NewSessionFor(ctx, "alpha@1", 113); err == nil || !strings.Contains(err.Error(), "410") {
		t.Fatalf("registration against the draining version: got %v, want 410", err)
	}

	// The v1 sessions keep serving on the v1 stack past the supersede.
	waitServed(max(after[0], after[1]) + 2)
	stopTraffic()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d v1 requests failed through the rollout", n)
	}

	// The catalog reports both versions, the old one draining.
	infos, err := client.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || !infos[0].Draining || infos[0].Version != 1 || infos[1].Draining {
		t.Fatalf("catalog mid-drain: %+v", infos)
	}
	st := srv.Stats()
	if len(st.Models) != 2 || !st.Models[0].Draining || st.Models[0].Sessions != oldSessions {
		t.Fatalf("stats mid-drain: %+v", st.Models)
	}

	// The old sessions disconnect: the v1 stack drains, frees and leaves
	// the catalog; the v2 session is undisturbed.
	for _, sess := range oldSess {
		if err := sess.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-dep1.Drained():
	case <-time.After(10 * time.Second):
		t.Fatal("v1 stack never drained after its last session closed")
	}
	if infos, err = client.Models(ctx); err != nil || len(infos) != 1 || infos[0].Version != 2 {
		t.Fatalf("catalog after drain: %+v (err %v)", infos, err)
	}
	if err := inferAndCheck(t, ctx, newSess, v2, 4); err != nil {
		t.Fatal(err)
	}
}

// TestAdminAuth pins the authn contract on the admin mutations: without a
// bearer token they 401 (with a challenge), with a wrong one they 403, with
// the right one they work — and the read/serving endpoints stay open.
func TestAdminAuth(t *testing.T) {
	alpha := shapedModel(t, "alpha", 121, 16, 8, 4)
	srv, err := New(Options{AdminToken: "s3cret"}, alpha)
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	ctx := context.Background()
	anon := NewClient(ts, nil)
	admin := anon.WithAdminToken("s3cret")
	wrong := anon.WithAdminToken("guess")

	beta := shapedModel(t, "beta", 122, 12, 6, 3)
	if _, err := anon.Deploy(ctx, beta); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("tokenless deploy: got %v, want 401", err)
	}
	if _, err := wrong.Deploy(ctx, beta); err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("wrong-token deploy: got %v, want 403", err)
	}
	if err := anon.Retire(ctx, "alpha"); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("tokenless retire: got %v, want 401", err)
	}
	if _, err := anon.Supersede(ctx, alpha); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("tokenless supersede: got %v, want 401", err)
	}
	// The 401 carries the WWW-Authenticate challenge.
	req, _ := http.NewRequest(http.MethodDelete, ts+"/v1/models/alpha", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized || resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatalf("challenge missing: status %s, WWW-Authenticate %q", resp.Status, resp.Header.Get("WWW-Authenticate"))
	}

	// Reads and session traffic need no token.
	if _, err := anon.Models(ctx); err != nil {
		t.Fatal(err)
	}
	sess, err := anon.NewSessionFor(ctx, "alpha", 123)
	if err != nil {
		t.Fatal(err)
	}
	if err := inferAndCheck(t, ctx, sess, alpha, 1); err != nil {
		t.Fatal(err)
	}

	// The real token passes every mutation.
	if _, err := admin.Deploy(ctx, beta); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Supersede(ctx, shapedModel(t, "beta", 124, 12, 6, 3)); err != nil {
		t.Fatal(err)
	}
	if err := admin.Retire(ctx, "beta"); err != nil {
		t.Fatal(err)
	}
}

// TestPerModelSessionQuota: one model cannot monopolize the session table —
// registrations beyond Options.MaxSessionsPerModel 429 while other models
// (and the same model after a session closes) still register.
func TestPerModelSessionQuota(t *testing.T) {
	alpha := shapedModel(t, "alpha", 131, 16, 8, 4)
	beta := shapedModel(t, "beta", 132, 12, 6, 3)
	srv, err := New(Options{MaxSessionsPerModel: 1}, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	ctx := context.Background()
	client := NewClient(ts, nil)

	first, err := client.NewSessionFor(ctx, "alpha", 141)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.NewSessionFor(ctx, "alpha", 142); err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("over-quota registration: got %v, want 429", err)
	}
	// Another model has its own quota.
	if _, err := client.NewSessionFor(ctx, "beta", 143); err != nil {
		t.Fatalf("beta blocked by alpha's quota: %v", err)
	}
	// Freeing the slot reopens the model.
	if err := first.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := client.NewSessionFor(ctx, "alpha", 144); err != nil {
		t.Fatalf("registration after the quota freed: %v", err)
	}
}

// TestRestartRoundTrip is the persistence acceptance test: a server with a
// state directory accumulates a catalog (startup deploy, hot deploy over
// HTTP, supersede), stops, and a rebuilt server on the same directory comes
// back with the identical catalog — names, versions, parameter bytes — and
// a working register→infer→decrypt path. Hostile files dropped into the
// state directory are skipped, never a crashed startup.
func TestRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	alpha := shapedModel(t, "alpha", 151, 16, 8, 4)
	alphaV2 := shapedModel(t, "alpha", 152, 16, 8, 4)
	beta := shapedModel(t, "beta", 153, 12, 6, 3)

	srv1, err := New(Options{StateDir: dir, Workers: 2}, alpha)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newHTTPServer(t, srv1)
	ctx := context.Background()
	client1 := NewClient(ts1, nil)
	if _, err := client1.Deploy(ctx, beta); err != nil { // hot deploy over HTTP
		t.Fatal(err)
	}
	if _, err := client1.Supersede(ctx, alphaV2); err != nil { // roll alpha to v2
		t.Fatal(err)
	}
	before, err := client1.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 2 { // alpha@1 drained instantly (no sessions)
		t.Fatalf("catalog before restart: %+v", before)
	}
	sess1, err := client1.NewSessionFor(ctx, "alpha", 161)
	if err != nil {
		t.Fatal(err)
	}
	if err := inferAndCheck(t, ctx, sess1, alphaV2, 1); err != nil {
		t.Fatal(err)
	}

	// Stop the world; rebuild from the state directory alone.
	srv1.Close()
	srv2, err := New(Options{StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("rebuild from state dir: %v", err)
	}
	ts2 := newHTTPServer(t, srv2)
	client2 := NewClient(ts2, nil)
	after, err := client2.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("catalog size changed across restart: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if after[i].Name != before[i].Name || after[i].Version != before[i].Version {
			t.Fatalf("catalog entry %d changed: %s@%d -> %s@%d",
				i, before[i].Name, before[i].Version, after[i].Name, after[i].Version)
		}
		if string(after[i].Params) != string(before[i].Params) {
			t.Fatalf("%s parameter bytes changed across restart", after[i].Ref())
		}
	}
	// The reloaded catalog serves: full register→infer→decrypt on both
	// models, against the original weights.
	sess2, err := client2.NewSessionFor(ctx, "alpha", 162)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess2.Model().Version; got != 2 {
		t.Fatalf("restarted alpha is version %d, want 2", got)
	}
	if err := inferAndCheck(t, ctx, sess2, alphaV2, 2); err != nil {
		t.Fatalf("alpha after restart: %v", err)
	}
	sessBeta, err := client2.NewSessionFor(ctx, "beta", 163)
	if err != nil {
		t.Fatal(err)
	}
	if err := inferAndCheck(t, ctx, sessBeta, beta, 3); err != nil {
		t.Fatalf("beta after restart: %v", err)
	}
	srv2.Close()

	// Hostile state: truncated and corrupt bundles beside the good ones
	// must be skipped with a warning, not crash (or fail) the startup.
	goodBytes, err := os.ReadFile(filepath.Join(dir, "alpha@2.hemodel"))
	if err != nil {
		t.Fatal(err)
	}
	// A well-formed bundle a server from before grouped digits persisted:
	// its nested parameter literal carries a retired magic.
	perPrime, err := os.ReadFile(filepath.Join("..", "registry", "testdata", "perprime@1.hemodel"))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"golden@1.hemodel":  perPrime,
		"trunc@1.hemodel":   goodBytes[:len(goodBytes)/3],
		"junk@1.hemodel":    {1, 2, 3, 4, 5},
		"beta@9.hemodel":    goodBytes, // embedded name disagrees with the file
		"noversion.hemodel": goodBytes,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv3, err := New(Options{StateDir: dir})
	if err != nil {
		t.Fatalf("startup with hostile state files: %v", err)
	}
	defer srv3.Close()
	if got := srv3.Registry().Len(); got != 2 {
		t.Fatalf("hostile files changed the catalog: %d versions, want 2", got)
	}
}

// TestRestartSkipsDuplicateStartupModels: restarting with the same model
// flags as the previous run must not conflict with the reloaded catalog —
// the durable state wins and the duplicate startup model is skipped.
func TestRestartSkipsDuplicateStartupModels(t *testing.T) {
	dir := t.TempDir()
	alpha := shapedModel(t, "alpha", 171, 16, 8, 4)
	srv1, err := New(Options{StateDir: dir}, alpha)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	srv2, err := New(Options{StateDir: dir}, alpha)
	if err != nil {
		t.Fatalf("restart with the same startup model: %v", err)
	}
	defer srv2.Close()
	d, ok := srv2.Registry().Resolve("alpha")
	if !ok || d.Version() != 1 {
		t.Fatalf("restarted catalog: %v, want alpha@1 from the state dir", d)
	}
	if srv2.Registry().Len() != 1 {
		t.Fatalf("duplicate startup model doubled the catalog: %d entries", srv2.Registry().Len())
	}
}

// TestSupersedeRacingRegistration: a client that fetched v1's info but
// registers after the supersede must get a clean 410 (the client pins the
// exact version), never a session silently bound to different weights.
func TestSupersedeRacingRegistration(t *testing.T) {
	v1 := shapedModel(t, "alpha", 181, 16, 8, 4)
	srv, err := New(Options{}, v1)
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	ctx := context.Background()
	client := NewClient(ts, nil)

	info, err := client.ModelNamed(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if info.Ref() != "alpha@1" {
		t.Fatalf("info ref %s, want alpha@1", info.Ref())
	}
	// A session holds v1 so the supersede leaves it draining (an idle v1
	// would free and delist on the spot, turning the miss into a 404 —
	// also clean, but not the race under test).
	holder, err := client.NewSessionFor(ctx, "alpha", 184)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Supersede(shapedModel(t, "alpha", 182, 16, 8, 4)); err != nil {
		t.Fatal(err)
	}
	// NewSessionFor re-fetches; simulate the stale client by registering
	// against the pinned v1 reference directly.
	if _, err := client.NewSessionFor(ctx, "alpha@1", 183); err == nil || !strings.Contains(err.Error(), "410") {
		t.Fatalf("stale-version registration: got %v, want 410", err)
	}
	if err := holder.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
