package henn

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/ring"
)

// allocatedPerRun reports the mean bytes one call of f allocates.
func allocatedPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// assertNoDoublePut draws a batch of polys from each level's pool of a ring
// and fails if any poly comes out twice — what a double PutPoly leaves
// behind, and what would later hand one buffer to two live ciphertexts.
func assertNoDoublePut(t *testing.T, rq *ring.Ring) {
	t.Helper()
	for level := range rq.Moduli {
		seen := map[*ring.Poly]bool{}
		for i := 0; i < 256; i++ {
			p := rq.GetPolyRaw(level)
			if seen[p] {
				t.Fatalf("level-%d pool handed out one poly twice: it was returned twice", level)
			}
			seen[p] = true
		}
		for p := range seen {
			rq.PutPoly(p)
		}
	}
}

// TestLinearBSGSPoolSteadyState pins the pooled-intermediate discipline of
// the BSGS linear layer, dynamically (TestRotatePoolSteadyState's technique
// one layer up): a warm 128→128 layer at LogN=10 draws its accumulators,
// baby rotations, inner sums and rotated blocks from the ring pools and puts
// every one back exactly once — on success, and when a giant rotation's key
// is missing and the layer bails out holding all of them. So does every key
// switch under it: the five-limb chain has two special primes, so each
// decomposition holds three digits over Q and three two-limb polys over P,
// and each multiply-accumulate two more of the latter. Before the inner sum
// was fused, the same call allocated 41 MB (four fresh polys per diagonal).
// Now a success allocates its two result ciphertexts (Rescale, AddPlain:
// 128 KB) plus ~45 KB of closures and scratch-slice headers, and a failure
// only the latter; one leaked level-4 poly per call adds 40 KB and one
// leaked P poly 16 KB, so each bound sits half a P poly above its measured
// steady state (175 KB and 42 KB), and both rings' pools are checked for a
// poly returned twice.
func TestLinearBSGSPoolSteadyState(t *testing.T) {
	const levels = 4
	rng := rand.New(rand.NewSource(23))
	lin := randomLinear(rng, 128, 128)
	mlp := &MLP{Layers: []any{lin}}
	steps := mlp.ServingRotations(512)
	ctx, encryptor, _ := newHEContextLogN(t, 10, levels, steps)
	// The same keys minus the last giant step: the layer fails late.
	broken, _, _ := newHEContextLogN(t, 10, levels, steps[:len(steps)-1])

	ring.SetParallelism(1) // one goroutine: the pools' per-P caches stay warm
	defer ring.SetParallelism(0)

	vec := make([]float64, ctx.Params.Slots())
	for i := 0; i < lin.In; i++ {
		vec[i] = rng.Float64()*2 - 1
	}
	pt, err := ctx.Enc.EncodeReals(vec, levels, ctx.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := encryptor.Encrypt(pt)

	var want *ckks.Ciphertext
	succeed := func() {
		out, err := ctx.ApplyLinear(lin, ct)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = out
		} else if !out.C0.Equal(want.C0) || !out.C1.Equal(want.C1) {
			t.Fatal("a warm run's output differs from the first run's: a pooled poly is shared")
		}
	}
	fail := func() {
		if _, err := broken.ApplyLinear(lin, ct); err == nil {
			t.Fatal("the layer succeeded without its last giant-step key")
		}
	}
	for name, c := range map[string]struct {
		run   func()
		bound float64
	}{"success": {succeed, 183e3}, "missing key": {fail, 50e3}} {
		run := c.run
		for i := 0; i < 3; i++ {
			run() // warm the pools and the layer's plaintext cache
		}
		runs := 10
		if raceEnabled {
			runs = 1 // the byte bounds are off under race; keep the suite fast
		}
		perRun := allocatedPerRun(runs, run)
		t.Logf("%s: %.0f KB allocated per warm call", name, perRun/1e3)
		if perRun > c.bound && !raceEnabled {
			t.Errorf("%s: a warm call allocates %.0f KB (bound %.0f KB): pooled intermediates are leaking", name, perRun/1e3, c.bound/1e3)
		}
		for _, params := range []*ckks.Parameters{ctx.Params, broken.Params} {
			assertNoDoublePut(t, params.RingQ())
			assertNoDoublePut(t, params.RingP())
		}
	}
	succeed() // after the failures and the pool shuffles, still the same bytes
}
