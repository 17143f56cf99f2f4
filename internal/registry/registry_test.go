package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

const testLogN = 8

func testModel(t testing.TB, name string, seed int64) *Model {
	t.Helper()
	m, err := DemoModel(seed, testLogN)
	if err != nil {
		t.Fatal(err)
	}
	m.Name = name
	return m
}

func TestDeployGetListRetire(t *testing.T) {
	r := New()
	alpha, err := r.Deploy(testModel(t, "alpha", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Deploy(testModel(t, "beta", 2)); err != nil {
		t.Fatal(err)
	}
	if got, ok := r.Resolve("alpha"); !ok || got != alpha {
		t.Fatal("Resolve(alpha) did not return the deployed stack")
	}
	names := []string{}
	for _, d := range r.List() {
		names = append(names, d.Model().Name)
	}
	if !reflect.DeepEqual(names, []string{"alpha", "beta"}) {
		t.Fatalf("List order %v, want [alpha beta]", names)
	}
	if r.Len() != 2 {
		t.Fatalf("Len %d, want 2", r.Len())
	}

	if _, err := r.Deploy(testModel(t, "alpha", 3)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate deploy: got %v, want ErrExists", err)
	}

	if _, err := r.Retire("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Resolve("alpha"); ok {
		t.Fatal("retired model still in the catalog")
	}
	if _, err := r.Retire("alpha"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("double retire: got %v, want ErrUnknown", err)
	}
}

// TestDeployWarmsAndPrescribes: a deployed stack carries everything a
// session needs, and the rotation set matches the model's own derivation.
func TestDeployWarmsAndPrescribes(t *testing.T) {
	r := New()
	m := testModel(t, "alpha", 4)
	d, err := r.Deploy(m)
	if err != nil {
		t.Fatal(err)
	}
	if d.Params() == nil || d.Encoder() == nil || len(d.ParamBytes()) == 0 {
		t.Fatal("deployed stack missing compiled artifacts")
	}
	if d.Levels() != m.MLP.LevelsRequired() {
		t.Fatalf("Levels %d, want %d", d.Levels(), m.MLP.LevelsRequired())
	}
	if want := m.MLP.ServingRotations(d.Params().Slots()); !reflect.DeepEqual(d.Rotations(), want) {
		t.Fatalf("rotation set %v, want %v", d.Rotations(), want)
	}
}

func TestDeployValidation(t *testing.T) {
	r := New()
	for _, name := range []string{"", "no/slash", "-leading", "x" + string(make([]byte, 200))} {
		m := testModel(t, "ok", 5)
		m.Name = name
		if _, err := r.Deploy(m); err == nil {
			t.Fatalf("name %q deployed", name)
		}
	}
	// Too-shallow chain: the model needs more levels than the literal has.
	m := testModel(t, "shallow", 6)
	m.Params.LogQ = m.Params.LogQ[:2]
	if _, err := r.Deploy(m); err == nil {
		t.Fatal("insufficient-level chain deployed")
	}
	// Declared dims outside the linear envelope.
	m = testModel(t, "dims", 7)
	m.InputDim = 17
	if _, err := r.Deploy(m); err == nil {
		t.Fatal("input dim beyond the envelope deployed")
	}
}

// TestRetireRefcountDrain is the graceful-retirement contract: a retired
// version leaves the catalog and refuses new binds from the moment of
// retirement, while its bound session keeps its reference until it releases.
func TestRetireRefcountDrain(t *testing.T) {
	r := New()
	d, err := r.Deploy(testModel(t, "alpha", 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Bind(); err != nil { // a session
		t.Fatal(err)
	}

	if _, err := r.Retire("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := d.Bind(); !errors.Is(err, ErrRetired) {
		t.Fatalf("bind after retire: got %v, want ErrRetired", err)
	}
	if _, ok := r.Resolve("alpha@1"); ok {
		t.Fatal("retired version still in the catalog")
	}
	if d.Refs() != 1 {
		t.Fatalf("retire dropped the bound session's reference: %d refs", d.Refs())
	}
	d.Release() // session closes
	if d.Refs() != 0 {
		t.Fatalf("%d refs after the last release", d.Refs())
	}
}

// TestCatalogReadsIgnoreStackLock pins that Registry.mu and Deployed.mu are
// never held together. While a stack's own lock is held — the live
// version's, then a draining one's — every catalog read and a conflicting
// Deploy still return, because none of them reads a stack's state under the
// catalog lock. And a draining version's last Release, which delists it
// under the catalog lock, has let go of its own lock first.
func TestCatalogReadsIgnoreStackLock(t *testing.T) {
	r := New()
	d1, err := r.Deploy(testModel(t, "alpha", 13))
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Bind(); err != nil { // keeps alpha@1 draining
		t.Fatal(err)
	}
	d2, err := r.Supersede(testModel(t, "alpha", 14))
	if err != nil {
		t.Fatal(err)
	}
	conflict := testModel(t, "alpha", 15)
	reads := []struct {
		name string
		run  func()
	}{
		{"Resolve(alpha)", func() { r.Resolve("alpha") }},
		{"Resolve(alpha@1)", func() { r.Resolve("alpha@1") }},
		{"List", func() { r.List() }},
		{"Len", func() { r.Len() }},
		{"Deploy over the live name", func() { r.Deploy(conflict) }},
	}
	for _, held := range []*Deployed{d2, d1} {
		held.mu.Lock()
		for _, read := range reads {
			done := make(chan struct{})
			go func() {
				defer close(done)
				read.run()
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				held.mu.Unlock()
				t.Fatalf("%s waited on %s's stack lock", read.name, held.Ref())
			}
		}
		held.mu.Unlock()
	}

	r.mu.Lock()
	released := make(chan struct{})
	go func() {
		defer close(released)
		d1.Release() // waits for r.mu to delist alpha@1
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if d1.mu.TryLock() {
			refs := d1.refs
			d1.mu.Unlock()
			if refs == 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			r.mu.Unlock()
			t.Fatal("the last Release holds its stack lock while it waits for the catalog")
		}
		runtime.Gosched()
	}
	r.mu.Unlock()
	<-released
	if _, ok := r.Resolve("alpha@1"); ok {
		t.Fatal("drained version still in the catalog")
	}
}

// TestRetireIdleFreesImmediately: retiring a model nothing is bound to
// takes it out of the catalog on the spot.
func TestRetireIdleFreesImmediately(t *testing.T) {
	r := New()
	if _, err := r.Deploy(testModel(t, "idle", 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Retire("idle"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Resolve("idle@1"); ok || r.Len() != 0 {
		t.Fatal("idle retire left the version in the catalog")
	}
}

// TestConcurrentDeployRetire hammers the catalog from many goroutines; run
// under -race this pins the locking discipline.
func TestConcurrentDeployRetire(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("m%d", g)
			for i := 0; i < 10; i++ {
				d, err := r.Deploy(testModel(t, name, int64(g)))
				if err != nil {
					t.Error(err)
					return
				}
				if err := d.Bind(); err != nil {
					t.Error(err)
					return
				}
				r.List()
				r.Resolve(name)
				if _, err := r.Retire(name); err != nil {
					t.Error(err)
					return
				}
				if _, ok := r.Resolve(d.Ref()); ok {
					t.Errorf("%s still in the catalog after its retire", d.Ref())
					return
				}
				d.Release()
			}
		}(g)
	}
	wg.Wait()
}

// TestBundleRoundTrip: the deploy artifact survives the wire fully validated.
func TestBundleRoundTrip(t *testing.T) {
	m := testModel(t, "bundle", 10)
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got := new(Model)
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || got.InputDim != m.InputDim || got.OutputDim != m.OutputDim {
		t.Fatalf("bundle metadata mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Params, m.Params) {
		t.Fatalf("parameter literal mismatch: %+v vs %+v", got.Params, m.Params)
	}
	x := make([]float64, m.InputDim)
	for i := range x {
		x[i] = float64(i%3)/3 - 0.3
	}
	if !reflect.DeepEqual(got.MLP.InferPlain(x), m.MLP.InferPlain(x)) {
		t.Fatal("decoded network computes differently")
	}
	// A round-tripped bundle deploys.
	if _, err := New().Deploy(got); err != nil {
		t.Fatal(err)
	}
}

// TestBundleHostile: truncations and corrupted headers error cleanly.
func TestBundleHostile(t *testing.T) {
	data, err := testModel(t, "bundle", 11).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n += 7 {
		if err := new(Model).UnmarshalBinary(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	bad := append([]byte{}, data...)
	bad[0] ^= 0xff
	if err := new(Model).UnmarshalBinary(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := new(Model).UnmarshalBinary(append(data, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestSplitRef pins the reference grammar: bare names mean "newest live"
// (version 0), name@N pins a version, malformed suffixes error.
func TestSplitRef(t *testing.T) {
	for _, tc := range []struct {
		ref     string
		name    string
		version int
		ok      bool
	}{
		{"alpha", "alpha", 0, true},
		{"alpha@1", "alpha", 1, true},
		{"a.b-c_2@17", "a.b-c_2", 17, true},
		{"alpha@0", "", 0, false},
		{"alpha@-3", "", 0, false},
		{"alpha@", "", 0, false},
		{"alpha@x", "", 0, false},
		{"alpha@1@2", "", 0, false},
	} {
		name, version, err := SplitRef(tc.ref)
		if tc.ok && (err != nil || name != tc.name || version != tc.version) {
			t.Errorf("SplitRef(%q) = (%q, %d, %v), want (%q, %d)", tc.ref, name, version, err, tc.name, tc.version)
		}
		if !tc.ok && err == nil {
			t.Errorf("SplitRef(%q) accepted", tc.ref)
		}
	}
	if Ref("alpha", 2) != "alpha@2" {
		t.Errorf("Ref: %s", Ref("alpha", 2))
	}
}

// TestVersionedSupersedeLifecycle is the tentpole contract: Supersede
// publishes vN+1 while vN drains — still resolvable by exact reference,
// refusing new binds, serving existing references until the last one
// releases, then leaving the catalog.
func TestVersionedSupersedeLifecycle(t *testing.T) {
	r := New()
	d1, err := r.Deploy(testModel(t, "alpha", 1))
	if err != nil {
		t.Fatal(err)
	}
	if d1.Version() != 1 || d1.Ref() != "alpha@1" {
		t.Fatalf("first deploy is %s, want alpha@1", d1.Ref())
	}
	if err := d1.Bind(); err != nil { // a live session on v1
		t.Fatal(err)
	}

	d2, err := r.Supersede(testModel(t, "alpha", 2))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Version() != 2 {
		t.Fatalf("supersede published v%d, want v2", d2.Version())
	}
	if !d1.Draining() {
		t.Fatal("superseded version not draining")
	}

	// Bare resolution lands on the new version; the old one stays pinned
	// by exact reference but refuses new sessions.
	if got, ok := r.Resolve("alpha"); !ok || got != d2 {
		t.Fatal("bare name did not resolve to the newest live version")
	}
	if got, ok := r.Resolve("alpha@1"); !ok || got != d1 {
		t.Fatal("draining version not resolvable by exact reference")
	}
	if err := d1.Bind(); !errors.Is(err, ErrDraining) {
		t.Fatalf("bind on a draining version: got %v, want ErrDraining", err)
	}
	if err := d2.Bind(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("catalog has %d versions mid-drain, want 2", r.Len())
	}

	// The old session finishes: the v1 stack leaves the catalog with it.
	if _, ok := r.Resolve("alpha@1"); !ok {
		t.Fatal("draining version left the catalog with the old session still bound")
	}
	d1.Release()
	if _, ok := r.Resolve("alpha@1"); ok {
		t.Fatal("fully drained version still in the catalog")
	}
	if r.Len() != 1 {
		t.Fatalf("catalog has %d versions after drain, want 1", r.Len())
	}
	d2.Release()
}

// TestSupersedeIdleDrainsInstantly: superseding a version nothing is bound
// to takes it out of the catalog on the spot.
func TestSupersedeIdleDrainsInstantly(t *testing.T) {
	r := New()
	if _, err := r.Deploy(testModel(t, "idle", 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Supersede(testModel(t, "idle", 4)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Resolve("idle@1"); ok {
		t.Fatal("idle supersede left the old version in the catalog")
	}
	if r.Len() != 1 {
		t.Fatalf("catalog has %d versions, want just the successor", r.Len())
	}
}

// TestDeployOverLiveNameConflicts: plain Deploy is not an upgrade path —
// a live name 409s, and retiring never recycles version numbers.
func TestDeployOverLiveNameConflicts(t *testing.T) {
	r := New()
	if _, err := r.Deploy(testModel(t, "alpha", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Deploy(testModel(t, "alpha", 6)); !errors.Is(err, ErrExists) {
		t.Fatalf("deploy over a live name: got %v, want ErrExists", err)
	}
	if _, err := r.Retire("alpha"); err != nil {
		t.Fatal(err)
	}
	d, err := r.Deploy(testModel(t, "alpha", 7))
	if err != nil {
		t.Fatal(err)
	}
	if d.Version() != 2 {
		t.Fatalf("redeploy after retire got version %d; numbers must never be reused", d.Version())
	}
}

// TestRetireExactVersion: "name@N" retires one version, leaving siblings.
func TestRetireExactVersion(t *testing.T) {
	r := New()
	d1, err := r.Deploy(testModel(t, "alpha", 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Bind(); err != nil {
		t.Fatal(err)
	}
	d2, err := r.Supersede(testModel(t, "alpha", 9))
	if err != nil {
		t.Fatal(err)
	}
	deps, err := r.Retire("alpha@2")
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 1 || deps[0] != d2 {
		t.Fatalf("Retire(alpha@2) removed %v", deps)
	}
	if err := d2.Bind(); !errors.Is(err, ErrRetired) {
		t.Fatalf("bind after an exact-version retire: got %v, want ErrRetired", err)
	}
	// v1 is still draining and still pinned by its reference.
	if got, ok := r.Resolve("alpha@1"); !ok || got != d1 {
		t.Fatal("sibling version lost by an exact-version retire")
	}
	// No live version remains, so the bare name resolves to nothing.
	if _, ok := r.Resolve("alpha"); ok {
		t.Fatal("bare name resolved with only a draining version left")
	}
	d1.Release()
}

// TestDeployAfterLiveRetire: retiring the live version by exact reference
// while an older one drains leaves the name with no live version, so a plain
// Deploy publishes the next version as the bare name's target, and the
// draining version stays pinned until its last Release delists it.
func TestDeployAfterLiveRetire(t *testing.T) {
	r := New()
	d1, err := r.Deploy(testModel(t, "alpha", 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Bind(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Supersede(testModel(t, "alpha", 17)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Retire("alpha@2"); err != nil {
		t.Fatal(err)
	}
	d3, err := r.Deploy(testModel(t, "alpha", 18))
	if err != nil {
		t.Fatalf("deploy with only a draining version left: %v", err)
	}
	if d3.Version() != 3 {
		t.Fatalf("deploy after the live retire got version %d, want 3", d3.Version())
	}
	if got, ok := r.Resolve("alpha"); !ok || got != d3 {
		t.Fatal("bare name did not resolve to the new deploy")
	}
	if got, ok := r.Resolve("alpha@1"); !ok || got != d1 {
		t.Fatal("draining version lost while its session is bound")
	}
	if err := d1.Bind(); !errors.Is(err, ErrDraining) {
		t.Fatalf("bind on the draining version: got %v, want ErrDraining", err)
	}
	d1.Release()
	if _, ok := r.Resolve("alpha@1"); ok {
		t.Fatal("draining version still in the catalog after its last release")
	}
	if got, ok := r.Resolve("alpha"); !ok || got != d3 || r.Len() != 1 {
		t.Fatalf("catalog after the drain holds %d versions, want only alpha@3", r.Len())
	}
}

// TestStorePersistReloadRetire is the durability round trip: a second
// registry on the same store reloads the identical catalog (names,
// versions, parameter bytes), supersede swaps the persisted bundle to the
// new version, and retire removes the file.
func TestStorePersistReloadRetire(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Registry, *Store) {
		t.Helper()
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := New()
		for _, w := range r.UseStore(st) {
			t.Fatalf("unexpected store warning: %v", w)
		}
		return r, st
	}

	r1, _ := open()
	if _, err := r1.Deploy(testModel(t, "alpha", 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Deploy(testModel(t, "beta", 11)); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Supersede(testModel(t, "alpha", 12)); err != nil {
		t.Fatal(err)
	}

	// The state dir now holds exactly the surviving versions, no temp junk.
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, f := range files {
		names = append(names, filepath.Base(f))
	}
	sort.Strings(names)
	if want := []string{"alpha@2.hemodel", "beta@1.hemodel"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("state dir holds %v, want %v", names, want)
	}

	// A fresh registry reloads the identical catalog.
	r2, _ := open()
	want := r1.List()
	got := r2.List()
	if len(got) != len(want) {
		t.Fatalf("reloaded %d versions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Ref() != want[i].Ref() {
			t.Fatalf("reloaded %s, want %s", got[i].Ref(), want[i].Ref())
		}
		if !reflect.DeepEqual(got[i].ParamBytes(), want[i].ParamBytes()) {
			t.Fatalf("%s parameter bytes changed across reload", got[i].Ref())
		}
	}
	// The version counter survives too: a new alpha deploy must not collide
	// with the retired/drained history.
	if _, err := r2.Retire("alpha"); err != nil {
		t.Fatal(err)
	}
	d, err := r2.Deploy(testModel(t, "alpha", 13))
	if err != nil {
		t.Fatal(err)
	}
	if d.Version() != 3 {
		t.Fatalf("post-reload redeploy got version %d, want 3", d.Version())
	}

	// Retire removes files; a third reload sees only what survived.
	if _, err := r2.Retire("beta"); err != nil {
		t.Fatal(err)
	}
	r3, _ := open()
	if r3.Len() != 1 {
		t.Fatalf("final reload has %d versions, want 1 (alpha@3)", r3.Len())
	}
	if _, ok := r3.Resolve("alpha@3"); !ok {
		t.Fatal("alpha@3 missing after final reload")
	}
}

// TestStoreHostileFilesSkipWithWarning: truncated, corrupt, misnamed and
// stray files in the state directory must produce warnings and be skipped —
// never a failed (or panicking) startup.
func TestStoreHostileFilesSkipWithWarning(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := testModel(t, "good", 14)
	if err := st.Save(good, 1); err != nil {
		t.Fatal(err)
	}
	goodBytes, err := good.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	hostile := map[string][]byte{
		"truncated@1.hemodel":     goodBytes[:len(goodBytes)/2],
		"garbage@2.hemodel":       {0xde, 0xad, 0xbe, 0xef},
		"noversion.hemodel":       goodBytes,
		"bad@0.hemodel":           goodBytes,
		"mismatch@1.hemodel":      goodBytes, // embedded name says "good"
		"straggler@1.hemodel.tmp": goodBytes,
		"README.txt":              []byte("not a bundle"),
	}
	for name, data := range hostile {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r := New()
	warnings := r.UseStore(st)
	// Every *.hemodel except the good one warns; .tmp and .txt are ignored.
	if len(warnings) != 5 {
		t.Fatalf("got %d warnings (%v), want 5", len(warnings), warnings)
	}
	if r.Len() != 1 {
		t.Fatalf("catalog has %d versions, want only the good one", r.Len())
	}
	d, ok := r.Resolve("good@1")
	if !ok {
		t.Fatal("good bundle not loaded")
	}
	if d.Model().InputDim != good.InputDim {
		t.Fatal("good bundle loaded incorrectly")
	}
}

// TestConcurrentSupersedeChurn hammers supersede/resolve/bind under -race.
func TestConcurrentSupersedeChurn(t *testing.T) {
	r := New()
	if _, err := r.Deploy(testModel(t, "hot", 20)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if g == 0 {
					if _, err := r.Supersede(testModel(t, "hot", int64(30+i))); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if d, ok := r.Resolve("hot"); ok {
					if err := d.Bind(); err == nil {
						d.Release()
					}
				}
				r.List()
			}
		}(g)
	}
	wg.Wait()
	// Exactly one live version survives the churn (the catalog never holds
	// a retired one).
	live := 0
	for _, d := range r.List() {
		if !d.Draining() {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("%d live versions after churn, want 1", live)
	}
}

// TestUseStoreFinishesCrashedSupersede: a crash between a supersede's
// Save(vN+1) and Remove(vN) leaves both bundle files; the next load must
// keep only the newest version live and drop (and delete) the stale one —
// not present one logical model as two live versions.
func TestUseStoreFinishesCrashedSupersede(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(testModel(t, "alpha", 40), 1); err != nil { // the un-removed old version
		t.Fatal(err)
	}
	if err := st.Save(testModel(t, "alpha", 41), 2); err != nil {
		t.Fatal(err)
	}

	r := New()
	warnings := r.UseStore(st)
	if len(warnings) != 1 {
		t.Fatalf("got %d warnings (%v), want the stale-version drop", len(warnings), warnings)
	}
	if r.Len() != 1 {
		t.Fatalf("catalog has %d versions, want only alpha@2", r.Len())
	}
	d, ok := r.Resolve("alpha")
	if !ok || d.Version() != 2 {
		t.Fatalf("resolved %v, want alpha@2", d)
	}
	// The stale file is gone: the next restart is clean.
	if _, err := os.Stat(filepath.Join(dir, "alpha@1.hemodel")); !os.IsNotExist(err) {
		t.Fatalf("stale alpha@1.hemodel survived the recovery (stat err: %v)", err)
	}
}

// TestRetireRacingSupersedeLeavesNoBundle: a Retire that lands as soon as a
// Supersede's new version resolves must not leave that version's bundle on
// disk, where the next restart would bring the retired model back. Every
// round ends with the state directory listing exactly the catalog's live
// versions.
func TestRetireRacingSupersedeLeavesNoBundle(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	if ws := r.UseStore(st); len(ws) != 0 {
		t.Fatalf("unexpected warnings: %v", ws)
	}
	stop := make(chan struct{}) // ends a round's poller if the test fails first
	defer close(stop)
	for round := 1; round <= 60; round++ {
		retired := make(chan error, 1)
		go func() {
			for {
				if d, ok := r.Resolve("alpha"); ok && d.Version() == round {
					_, err := r.Retire("alpha")
					retired <- err
					return
				}
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
		if _, err := r.Supersede(testModel(t, "alpha", int64(round))); err != nil {
			t.Fatal(err)
		}
		if err := <-retired; err != nil {
			t.Fatal(err)
		}
		loaded, warnings := st.Load()
		if len(warnings) != 0 {
			t.Fatalf("round %d: store warnings %v", round, warnings)
		}
		var onDisk, live []string
		for _, e := range loaded {
			onDisk = append(onDisk, Ref(e.Model.Name, e.Version))
		}
		for _, d := range r.List() {
			if !d.Draining() {
				live = append(live, d.Ref())
			}
		}
		if !reflect.DeepEqual(onDisk, live) {
			t.Fatalf("round %d: state dir holds %v, catalog's live versions are %v", round, onDisk, live)
		}
	}
}

// TestStoreRejectsNonCanonicalFileNames: "alpha@01.hemodel" parses to a
// version whose canonical path differs, so Remove could never delete it and
// a retired model would resurrect every restart — it must be skipped.
func TestStoreRejectsNonCanonicalFileNames(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := testModel(t, "alpha", 42).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha@01.hemodel", "alpha@+1.hemodel"} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loaded, warnings := st.Load()
	if len(loaded) != 0 {
		t.Fatalf("non-canonical file names loaded: %v", loaded)
	}
	if len(warnings) != 2 {
		t.Fatalf("got %d warnings (%v), want 2", len(warnings), warnings)
	}
}

// TestDeployPersistFailureRetiresStack: when the store write fails, nothing
// is published — no version lingers live-but-invisible in the catalog.
func TestDeployPersistFailureRetiresStack(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	if ws := r.UseStore(st); len(ws) != 0 {
		t.Fatalf("unexpected warnings: %v", ws)
	}
	// Delete the directory out from under the store so Save's temp-file
	// write fails (works even as root, which ignores permission bits).
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	_, err = r.Deploy(testModel(t, "alpha", 43))
	if err == nil {
		t.Fatal("deploy succeeded with an unwritable store")
	}
	if r.Len() != 0 {
		t.Fatalf("failed deploy left %d catalog entries", r.Len())
	}
}

// TestStoreSaveFailureLeavesNoTemp: a Save whose write fails part-way (the
// temp file is a link to /dev/full, so every write is ENOSPC) returns the
// error and removes the temp file, leaving no bundle behind.
func TestStoreSaveFailureLeavesNoTemp(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", filepath.Join(dir, "alpha@1.hemodel.tmp")); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(testModel(t, "alpha", 44), 1); err == nil {
		t.Fatal("Save succeeded on a full device")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Fatalf("failed Save left %v behind", left)
	}
}

// TestParamsExactDepth pins the modulus-chain sizing contract: ParamsForMLP
// allocates exactly LevelsRequired rescaling levels, so compiled parameters
// have no slack above the inference depth. A +1 margin here once masked a
// serving-boundary off-by-one (the class hennlint's levelbudget analyzer now
// flags); keeping the budget exact means any depth drift fails loudly as a
// level-exhaustion error instead of silently consuming the headroom.
func TestParamsExactDepth(t *testing.T) {
	r := New()
	d, err := r.Deploy(testModel(t, "exact", 1))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.Params().MaxLevel(), d.Levels(); got != want {
		t.Fatalf("compiled MaxLevel %d, want exactly LevelsRequired %d", got, want)
	}
}
