package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/registry"
)

// TestSupersedeDrainEndToEnd is the versioned-rollout acceptance path over
// HTTP: a supersede lands while two v1 sessions keep up continuous
// concurrent traffic. No request fails, and every answer matches its own
// version's reference — a crossed wire would answer v1 sessions with v2's
// weights. New registrations bind v2, exact v1 registrations 410, the
// catalog reports the drain, and v1 leaves the catalog once its last
// session closes.
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

	// The old sessions disconnect: v1 leaves the catalog with the last of
	// them; the v2 session is undisturbed.
	for i, sess := range oldSess {
		if _, ok := srv.Registry().Resolve(dep1.Ref()); !ok {
			t.Fatalf("v1 left the catalog with %d of its sessions still bound", oldSessions-i)
		}
		if err := sess.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := srv.Registry().Resolve(dep1.Ref()); ok || dep1.Refs() != 0 {
		t.Fatalf("v1 still cataloged (%v) or bound (%d refs) after its last session closed", ok, dep1.Refs())
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

// TestKeyBudget: a session costs the key budget its expanded keys, whatever
// its model. With room for one session, a second registration, to either
// model, answers 429 having read no body byte; and each
// way a session ends (delete, retire, TTL eviction) returns its charge, so
// the next registration succeeds. Close returns what is left.
func TestKeyBudget(t *testing.T) {
	alpha := shapedModel(t, "alpha", 131, 16, 8, 4)
	beta := shapedModel(t, "beta", 132, 16, 8, 4)
	charge := sessionCharge(t, alpha)
	if c := sessionCharge(t, beta); c != charge {
		t.Fatalf("same-shape models cost %d and %d key bytes a session", charge, c)
	}
	srv, err := New(Options{KeyBudget: charge}, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	ctx := context.Background()
	client := NewClient(ts, nil)

	dep, _ := srv.reg.Resolve("alpha")
	kg := ckks.NewKeyGenerator(dep.Params(), 5)
	sk := kg.GenSecretKey()
	frame := marshalRegistration(dep.ParamBytes(), dep.Params(),
		kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, dep.Rotations(), false))
	handler := srv.Handler()
	refused := func(when string) {
		t.Helper()
		body := &countingReader{r: bytes.NewReader(frame)}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, registerPath(dep.Ref()), body))
		if rec.Code != http.StatusTooManyRequests || body.n > 0 {
			t.Fatalf("%s: got %d %s having read %d body bytes, want 429 with none read",
				when, rec.Code, rec.Body, body.n)
		}
		if charged, live := keyCharge(srv); charged != charge || live != charge {
			t.Fatalf("%s: %d bytes charged, %d held by live sessions, want %d", when, charged, live, charge)
		}
	}

	first, err := client.NewSessionFor(ctx, "alpha", 141)
	if err != nil {
		t.Fatal(err)
	}
	refused("alpha's session live")
	if err := first.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := client.NewSessionFor(ctx, "beta", 142); err != nil {
		t.Fatalf("registration after a delete: %v", err)
	}
	refused("beta's session live") // one budget for every model
	if err := client.Retire(ctx, "beta"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.NewSessionFor(ctx, "alpha", 143); err != nil {
		t.Fatalf("registration after a retire: %v", err)
	}
	refused("alpha's session live again")
	srv.Close() // closes the live session, and its charge goes with it
	if charged, _ := keyCharge(srv); charged != 0 {
		t.Fatalf("%d bytes still charged after Close", charged)
	}

	// Every session idles past a nanosecond TTL: the janitor evicts each,
	// and its charge with it.
	srv, err = New(Options{KeyBudget: charge, SessionTTL: time.Nanosecond}, shapedModel(t, "alpha", 131, 16, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	client = NewClient(newHTTPServer(t, srv), nil)
	for i := range 2 {
		if _, err := client.NewSessionFor(ctx, "alpha", int64(144+i)); err != nil {
			t.Fatalf("registration %d, after %d TTL evictions: %v", i, i, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for charged, _ := keyCharge(srv); charged != 0; charged, _ = keyCharge(srv) {
			if time.Now().After(deadline) {
				t.Fatalf("%d bytes still charged a TTL past the session's last use", charged)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestKeyBudgetBurst: a parallel burst of registrations against a budget of
// k sessions admits exactly k and refuses the rest 429, and the charge never
// exceeds the budget on the way.
func TestKeyBudgetBurst(t *testing.T) {
	const k, burst = 3, 12
	model, err := registry.DemoModel(11, testLogN)
	if err != nil {
		t.Fatal(err)
	}
	budget := k * sessionCharge(t, model)
	_, srv, _ := newSchedServer(t, Options{KeyBudget: budget})
	kg, sk := keyGen(t, srv, 3, nil)
	dep := srv.reg.List()[0]
	frame := marshalFrame(frameFor(srv, kg, sk, dep.Rotations()))
	handler := srv.Handler()

	stop, watched := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watched)
		for {
			if charged, _ := keyCharge(srv); charged > budget {
				t.Errorf("%d bytes charged against a %d-byte budget", charged, budget)
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()
	var codes [burst]int
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, registerPath(dep.Ref()), bytes.NewReader(frame)))
			codes[i] = rec.Code
		}()
	}
	wg.Wait()
	close(stop)
	<-watched
	admitted, refused := 0, 0
	for _, code := range codes {
		switch code {
		case http.StatusOK:
			admitted++
		case http.StatusTooManyRequests:
			refused++
		}
	}
	if admitted != k || refused != burst-k {
		t.Fatalf("statuses %v: %d admitted and %d refused 429, want %d and %d", codes, admitted, refused, k, burst-k)
	}
	if charged, live := keyCharge(srv); charged != budget || live != budget {
		t.Fatalf("%d bytes charged, %d held by live sessions, want the %d-byte budget", charged, live, budget)
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
	// would leave the catalog on the spot, turning the miss into a 404 —
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

	// Retire arm: registrations race a DELETE of the whole family. Each one
	// either lands before the retire, and the retire's session sweep closes
	// it, or fails cleanly with 404 or 410. None may stay bound to a retired
	// version or leave its charge on the key budget.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		landed   []string
		first    = make(chan struct{})
		firstOne sync.Once
	)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); ; i++ {
				sess, err := client.NewSessionFor(ctx, "alpha", 300+100*int64(g)+i)
				if err != nil {
					if !strings.Contains(err.Error(), "404") && !strings.Contains(err.Error(), "410") {
						t.Errorf("registration racing a retire: got %v, want 404 or 410", err)
					}
					return
				}
				mu.Lock()
				landed = append(landed, sess.ID())
				mu.Unlock()
				firstOne.Do(func() { close(first) })
			}
		}()
	}
	select {
	case <-first:
	case <-time.After(30 * time.Second):
		t.Fatal("no registration landed before the retire")
	}
	if err := client.Retire(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for _, id := range landed {
		if sess := srv.lookup(id); sess != nil {
			t.Errorf("session %s still bound to %s after its retire", id, sess.dep.Ref())
		}
	}
	if charged, live := keyCharge(srv); charged != 0 || live != 0 {
		t.Errorf("key budget charge %d bytes (%d live) after the retire, want 0", charged, live)
	}
	metrics, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "\nhenn_session_key_bytes 0\n") {
		t.Errorf("henn_session_key_bytes is not 0 after the retire:\n%s", metrics)
	}
}

// finalized returns a channel closed once the garbage collector frees obj.
func finalized[T any](obj *T) <-chan struct{} {
	gone := make(chan struct{})
	runtime.SetFinalizer(obj, func(*T) { close(gone) })
	return gone
}

// awaitCollected runs the garbage collector until gone closes (bounded).
func awaitCollected(t *testing.T, gone <-chan struct{}, what string) {
	t.Helper()
	for range 200 {
		runtime.GC()
		select {
		case <-gone:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("%s was never collected", what)
}

// firstLinear returns the first linear layer of a cataloged version's
// server-side stack.
func firstLinear(t *testing.T, srv *Server, ref string) *henn.Linear {
	t.Helper()
	d, ok := srv.reg.Resolve(ref)
	if !ok {
		t.Fatalf("%s not in the catalog", ref)
	}
	return d.Model().MLP.Layers[0].(*henn.Linear)
}

// TestClosedSessionKeysCollected: once a session is deleted nothing pins its
// keys. The scheduler's ring used to keep the last session it served in its
// backing array, holding the evaluator and its expanded keys until a later
// enqueue overwrote the slot.
func TestClosedSessionKeysCollected(t *testing.T) {
	model, srv, ts := newSchedServer(t, Options{Workers: 1})
	ctx := context.Background()
	sess, err := NewClient(ts.URL, nil).NewSession(ctx, 97)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Infer(ctx, make([]float64, model.InputDim)); err != nil {
		t.Fatal(err)
	}
	gone := finalized(srv.lookup(sess.ID()).ctx.Eval)
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	awaitCollected(t, gone, "a closed session's evaluator")
}

// TestFreedStackCollected: the garbage collector frees a stack, caches and
// all, once it is retired or drained and its last session is gone, or once
// its server is closed while the model lives on in another. Each stack
// serves one inference first, so its plans and plaintexts are built.
func TestFreedStackCollected(t *testing.T) {
	ctx := context.Background()
	t.Run("retired startup model", func(t *testing.T) {
		// The model is built and passed to New here, so the test holds no
		// reference to it.
		srv, err := New(Options{}, shapedModel(t, "alpha", 131, 16, 8, 4))
		if err != nil {
			t.Fatal(err)
		}
		client := NewClient(newHTTPServer(t, srv), nil)
		sess, err := client.NewSession(ctx, 132)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Infer(ctx, make([]float64, 16)); err != nil {
			t.Fatal(err)
		}
		gone := finalized(firstLinear(t, srv, "alpha@1"))
		if err := client.Retire(ctx, "alpha"); err != nil {
			t.Fatal(err)
		}
		awaitCollected(t, gone, "a retired stack's linear layer")
	})
	t.Run("superseded then drained", func(t *testing.T) {
		srv, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		client := NewClient(newHTTPServer(t, srv), nil)
		if _, err := client.Deploy(ctx, shapedModel(t, "beta", 133, 12, 6, 3)); err != nil {
			t.Fatal(err)
		}
		sess, err := client.NewSessionFor(ctx, "beta", 134)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Infer(ctx, make([]float64, 12)); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Supersede(ctx, shapedModel(t, "beta", 135, 12, 6, 3)); err != nil {
			t.Fatal(err)
		}
		gone := finalized(firstLinear(t, srv, "beta@1"))
		if err := sess.Close(ctx); err != nil {
			t.Fatal(err)
		}
		awaitCollected(t, gone, "a drained stack's linear layer")
	})
	t.Run("model redeployed in another server", func(t *testing.T) {
		model := shapedModel(t, "gamma", 136, 12, 6, 3)
		infer := func(url string, seed int64) {
			sess, err := NewClient(url, nil).NewSession(ctx, seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Infer(ctx, make([]float64, 12)); err != nil {
				t.Fatal(err)
			}
		}
		// Server A lives only in this closure; the layers it ran keep no
		// reference to its encoder once B runs them.
		gone := func() <-chan struct{} {
			srv, err := New(Options{}, model)
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv.Handler())
			defer func() {
				hs.Close()
				srv.Close()
			}()
			infer(hs.URL, 137)
			d, _ := srv.reg.Resolve("gamma@1")
			return finalized(d.Encoder())
		}()
		srv, err := New(Options{}, model)
		if err != nil {
			t.Fatal(err)
		}
		infer(newHTTPServer(t, srv), 138)
		awaitCollected(t, gone, "a closed server's encoder")
	})
}

// generatorRunning reports whether any goroutine is still streaming a
// registration's keys.
func generatorRunning() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("server.writeRegistration"))
}

// TestStreamedRegistrationLeavesNoGoroutine: a client streams its keys onto
// the registration body from a generator goroutine. A registration refused
// before a body byte is read (404 unknown model, 429 key budget full),
// refused at bind (410 draining), refused by a server that then stops
// reading, or whose context is cancelled mid-upload returns an error with
// that generator already stopped, and once the servers are closed the
// goroutine count is back at its baseline.
func TestStreamedRegistrationLeavesNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	alpha := shapedModel(t, "alpha", 151, 16, 8, 4)
	srv, err := New(Options{KeyBudget: 2 * sessionCharge(t, alpha)}, alpha)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	// The stalling server reads a little of a registration, then reads
	// nothing until the client gives up and drops the connection: the keys
	// are still being generated then.
	uploading, dropped := make(chan struct{}), make(chan struct{})
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadFull(r.Body, make([]byte, 1<<10)); err == nil {
			close(uploading)
		}
		<-dropped
		_, _ = io.Copy(io.Discard, r.Body)
	}))
	t.Cleanup(func() {
		stall.Close()
		ts.Close()
		srv.Close()
	})
	ctx := context.Background()
	client := NewClient(ts.URL, nil)
	info, err := client.ModelNamed(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error containing %q", what, err, want)
		}
		if generatorRunning() {
			t.Errorf("%s: the key generator outlived the registration", what)
		}
	}

	// Two sessions fill the budget; the first keeps version 1 draining once
	// it is superseded, and leaving retires it.
	var live [2]*Session
	for i := range live {
		if live[i], err = client.NewSessionFor(ctx, "alpha", int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	_, err = client.newSession(ctx, info, 3)
	refused("key budget full", err, "429")
	if err := live[1].Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Supersede(shapedModel(t, "alpha", 152, 16, 8, 4)); err != nil {
		t.Fatal(err)
	}
	_, err = client.newSession(ctx, info, 4)
	refused("draining version", err, "410")
	if err := live[0].Close(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = client.newSession(ctx, info, 5)
	refused("unknown model", err, "404")

	// Mid-upload: the 128-wide serving literal with 24 rotation keys is an
	// 8 MB body, more than the loopback buffers take before the server reads.
	paramBytes, err := servingLit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wide := &ModelInfo{Name: "wide", Version: 1, Params: paramBytes}
	for step := 1; step <= 24; step++ {
		wide.Rotations = append(wide.Rotations, step)
	}
	cctx, cancel := context.WithCancel(ctx)
	go func() {
		<-uploading
		cancel()
	}()
	_, err = NewClient(stall.URL, nil).newSession(cctx, wide, 6)
	refused("cancelled mid-upload", err, context.Canceled.Error())
	close(dropped)

	// A server that answers before it has read the body, and then neither
	// reads nor hangs up, leaves the body's writer blocked: the client must
	// stop the generator itself.
	answered := make(chan struct{})
	early := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		const msg = `{"error":"unknown model"}`
		w.Header().Set("Content-Length", strconv.Itoa(len(msg)))
		w.WriteHeader(http.StatusNotFound)
		_, _ = io.WriteString(w, msg)
		w.(http.Flusher).Flush()
		<-answered
	}))
	done := make(chan error, 1)
	go func() {
		_, err := NewClient(early.URL, nil).newSession(ctx, wide, 7)
		done <- err
	}()
	select {
	case err = <-done:
		refused("answered before the body was read", err, "404")
	case <-time.After(20 * time.Second):
		t.Error("answered before the body was read: the registration did not return")
	}
	close(answered)

	early.Close()
	stall.Close()
	ts.Close()
	srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after teardown, %d before:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
