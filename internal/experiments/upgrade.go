package experiments

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/efficientfhe/smartpaf/internal/registry"
	"github.com/efficientfhe/smartpaf/internal/server"
)

func init() {
	register("upgrade", UpgradeRollout)
}

// UpgradeRollout drives a live v1→v2 model rollout under concurrent traffic
// and checks the versioned-lifecycle contract end to end: sessions opened
// before the supersede keep serving on the v1 stack (every answer is checked
// against v1's plaintext reference — a crossed wire would answer with v2's
// weights), sessions opened after it bind v2, no request fails at any point,
// the v1 stack's caches free once its last session disconnects (Drained
// fires), and — because the server runs on a state directory — a restart
// rebuilds the identical catalog and still serves. The table reports
// per-version request counts and p50/p99 latency through the rollout.
func UpgradeRollout(opt Options) error {
	logN, oldSessions, newSessions, reqs := 9, 2, 2, 6
	if !opt.Fast {
		logN, oldSessions, newSessions, reqs = 11, 3, 3, 10
	}
	workers := opt.Parallel
	if workers == 0 {
		workers = 2
	}
	const adminToken = "upgrade-demo-token"

	stateDir, err := os.MkdirTemp("", "upgrade-state-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)

	newVersion := func(seed int64) (*registry.Model, error) {
		m, err := registry.DemoModel(seed, logN)
		if err != nil {
			return nil, err
		}
		m.Name = "alpha"
		return m, nil
	}
	v1, err := newVersion(opt.Seed)
	if err != nil {
		return err
	}
	v2, err := newVersion(opt.Seed + 1)
	if err != nil {
		return err
	}

	srv, err := server.New(server.Options{
		Workers:    workers,
		StateDir:   stateDir,
		AdminToken: adminToken,
	}, v1)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	go func() { _ = http.Serve(ln, srv.Handler()) }()

	ctx := context.Background()
	client := server.NewClient("http://"+ln.Addr().String(), nil).WithAdminToken(adminToken)
	dep1, ok := srv.Registry().Resolve("alpha@1")
	if !ok {
		srv.Close()
		return fmt.Errorf("upgrade: alpha@1 missing after deploy")
	}

	x := make([]float64, v1.InputDim)
	for i := range x {
		x[i] = float64(i%7)/7.0 - 0.5
	}
	refOut := func(m *registry.Model) []float64 { return m.MLP.InferPlain(x)[:m.OutputDim] }
	matches := func(got, want []float64) bool {
		for i := range want {
			if d := got[i] - want[i]; d > 1e-3 || d < -1e-3 {
				return false
			}
		}
		return true
	}

	var (
		mu     sync.Mutex
		lats   = map[int][]time.Duration{1: nil, 2: nil}
		failed int
		runErr error
	)
	record := func(version int, want []float64, got []float64, d time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failed++
			if runErr == nil {
				runErr = err
			}
			return
		}
		if !matches(got, want) {
			failed++
			if runErr == nil {
				runErr = fmt.Errorf("upgrade: a v%d session's answer diverged from the v%d reference", version, version)
			}
			return
		}
		lats[version] = append(lats[version], d)
	}
	drive := func(wg *sync.WaitGroup, sess *server.Session, version int, want []float64) {
		defer wg.Done()
		for r := 0; r < reqs; r++ {
			start := time.Now()
			got, err := sess.Infer(ctx, x)
			record(version, want, got, time.Since(start), err)
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Old-version sessions start, warm, and keep a standing flow of traffic.
	var oldWG sync.WaitGroup
	oldSess := make([]*server.Session, oldSessions)
	for i := range oldSess {
		if oldSess[i], err = client.NewSessionFor(ctx, "alpha", opt.Seed^int64(0x1000+i)); err != nil {
			srv.Close()
			return err
		}
		if got := oldSess[i].Model().Version; got != 1 {
			srv.Close()
			return fmt.Errorf("upgrade: pre-rollout session bound v%d, want v1", got)
		}
		oldWG.Add(1)
		go drive(&oldWG, oldSess[i], 1, refOut(v1))
	}

	// The rollout lands mid-traffic.
	time.Sleep(50 * time.Millisecond)
	info2, err := client.Supersede(ctx, v2)
	if err != nil {
		srv.Close()
		return err
	}
	if info2.Version != 2 {
		srv.Close()
		return fmt.Errorf("upgrade: supersede published v%d, want v2", info2.Version)
	}

	// New registrations resolve the bare name to v2 and serve v2's weights
	// while v1 traffic is still in flight.
	var newWG sync.WaitGroup
	for i := 0; i < newSessions; i++ {
		sess, err := client.NewSessionFor(ctx, "alpha", opt.Seed^int64(0x2000+i))
		if err != nil {
			srv.Close()
			return err
		}
		if got := sess.Model().Version; got != 2 {
			srv.Close()
			return fmt.Errorf("upgrade: post-rollout session bound v%d, want v2", got)
		}
		newWG.Add(1)
		go drive(&newWG, sess, 2, refOut(v2))
	}
	oldWG.Wait()
	newWG.Wait()
	if runErr != nil {
		srv.Close()
		return runErr
	}

	// The last v1 session disconnecting must free the old stack.
	for _, sess := range oldSess {
		if err := sess.Close(ctx); err != nil {
			srv.Close()
			return err
		}
	}
	select {
	case <-dep1.Drained():
	case <-time.After(10 * time.Second):
		srv.Close()
		return fmt.Errorf("upgrade: v1 stack never drained after its sessions closed")
	}

	t := newTable(fmt.Sprintf("Live v1→v2 rollout, %d workers (N=%d)", workers, 1<<logN),
		"version", "role", "ok", "failed", "p50", "p99")
	for _, row := range []struct {
		version int
		role    string
	}{
		{1, "pre-rollout sessions, drained"},
		{2, "post-rollout sessions"},
	} {
		t.addRowf("alpha@%d|%s|%d|0|%s|%s", row.version, row.role, len(lats[row.version]),
			percentile(lats[row.version], 0.50).Round(time.Millisecond),
			percentile(lats[row.version], 0.99).Round(time.Millisecond))
	}
	t.write(opt.W)
	fmt.Fprintf(opt.W, "\nzero failed requests through the rollout (%d on v1, %d on v2); v1 caches freed on drain\n",
		len(lats[1]), len(lats[2]))

	// Restart: the catalog must rebuild from the state directory alone —
	// same refs, same parameter bytes — and still serve.
	before := srv.Registry().List()
	ln.Close()
	srv.Close()
	srv2, err := server.New(server.Options{Workers: workers, StateDir: stateDir})
	if err != nil {
		return fmt.Errorf("upgrade: restart from %s: %w", stateDir, err)
	}
	defer srv2.Close()
	after := srv2.Registry().List()
	if len(after) != len(before) {
		return fmt.Errorf("upgrade: catalog size changed across restart: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if after[i].Ref() != before[i].Ref() {
			return fmt.Errorf("upgrade: catalog entry changed across restart: %s -> %s", before[i].Ref(), after[i].Ref())
		}
		if string(after[i].ParamBytes()) != string(before[i].ParamBytes()) {
			return fmt.Errorf("upgrade: %s parameter bytes changed across restart", after[i].Ref())
		}
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln2.Close()
	go func() { _ = http.Serve(ln2, srv2.Handler()) }()
	sess, err := server.NewClient("http://"+ln2.Addr().String(), nil).NewSessionFor(ctx, "alpha", opt.Seed^0x3000)
	if err != nil {
		return fmt.Errorf("upgrade: registering after restart: %w", err)
	}
	got, err := sess.Infer(ctx, x)
	if err != nil {
		return fmt.Errorf("upgrade: inference after restart: %w", err)
	}
	if !matches(got, refOut(v2)) {
		return fmt.Errorf("upgrade: restarted alpha@2 diverged from the v2 reference")
	}
	fmt.Fprintf(opt.W, "restart check: %d-entry catalog (alpha@2) rebuilt byte-identically from the state dir and served a fresh session\n",
		len(after))
	return nil
}

// percentile returns the p-quantile (0 < p ≤ 1) of the samples.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
