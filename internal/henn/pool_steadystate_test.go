package henn

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/ring"
)

// allocatedPerRun reports the mean bytes one call of f allocates. The
// collector is off meanwhile: a cycle empties the ring pools, and refilling
// them would be charged to whichever call came next.
func allocatedPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
// the BSGS linear layer, dynamically (TestEvaluatorPoolSteadyState's
// technique one layer up): a warm 128→128 layer at LogN=10 draws its
// accumulators, baby rotations, inner sums, rotated blocks and rescaled sum
// from the ring pools and puts every one back exactly once — on success, and
// when a giant rotation's key is missing and the layer bails out holding all
// of them. So does every key switch under it: the five-limb chain has two
// special primes, so each decomposition holds three digits over Q and three
// two-limb polys over P, and each multiply-accumulate two more of the
// latter. Before the inner sum was fused, the same call allocated 41 MB
// (four fresh polys per diagonal). Now a success allocates its result
// ciphertext, which the test keeps (64 KB), plus ~45 KB of closures and
// scratch-slice headers, and a failure only the latter; one leaked level-4
// poly per call adds 40 KB and one leaked P poly 16 KB, so each bound sits
// half a P poly above its measured steady state (109 KB and 41 KB), and both
// rings' pools are checked for a poly returned twice. On two Ps, where the
// layer fans its baby rotations and giant blocks, calls missing the last
// giant key or the first baby key return every poly once too, and the next
// success is still the first's bytes.
func TestLinearBSGSPoolSteadyState(t *testing.T) {
	const levels = 4
	rng := rand.New(rand.NewSource(23))
	lin := randomLinear(rng, 128, 128)
	mlp := &MLP{Layers: []any{lin}}
	steps := mlp.ServingRotations(512)
	ctx, encryptor, _ := newHEContextLogN(t, 10, levels, steps)
	// The same keys minus the last giant step: the layer fails late. Minus
	// the first baby step: it fails among the baby rotations.
	broken, _, _ := newHEContextLogN(t, 10, levels, steps[:len(steps)-1])
	noBaby, _, _ := newHEContextLogN(t, 10, levels, steps[1:])

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
	failBaby := func() {
		if _, err := noBaby.ApplyLinear(lin, ct); err == nil {
			t.Fatal("the layer succeeded without its first baby-step key")
		}
	}
	params := []*ckks.Parameters{ctx.Params, broken.Params, noBaby.Params}
	checkSteadyState(t, "success", succeed, 117e3, params...)
	checkSteadyState(t, "missing key", fail, 50e3, params...)
	succeed() // after the failures and the pool shuffles, still the same bytes

	// Fanned over its baby rotations and giant blocks, a failing layer
	// still hands every intermediate back once, whichever worker held it.
	checkFannedPools(t, fail, params...)
	checkFannedPools(t, failBaby, params...)
	succeed()
}

// checkFannedPools runs run a few times on at least two Ps, where the
// linear layer's fans really fan, and checks both rings' pools of every
// parameter set for a poly returned twice. It bounds no allocation: on
// several Ps a pool's per-P slot is out of reach of a goroutine that
// migrated, so the bytes a call allocates vary from run to run.
func checkFannedPools(t *testing.T, run func(), params ...*ckks.Parameters) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	for i := 0; i < 5; i++ {
		run()
	}
	for _, p := range params {
		assertNoDoublePut(t, p.RingQ())
		assertNoDoublePut(t, p.RingP())
	}
}

// checkSteadyState warms run (the pools, and the layer's plan), fails if
// a warm call allocates more than bound bytes — off under -race, whose
// sync.Pool drops a quarter of all puts at random — and checks both rings'
// pools of every parameter set for a poly returned twice. It runs on one P,
// which also keeps every ring fan serial: a pool's per-P private slot is out
// of reach of a goroutine that migrated, so on several Ps the same call
// measured anywhere from one to two times its steady state.
func checkSteadyState(t *testing.T, name string, run func(), bound float64, params ...*ckks.Parameters) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 3; i++ {
		run()
	}
	runs := 10
	if raceEnabled {
		runs = 1 // the byte bound is off; keep the suite fast
	}
	perRun := allocatedPerRun(runs, run)
	t.Logf("%s: %.0f KB allocated per warm call", name, perRun/1e3)
	if perRun > bound && !raceEnabled {
		t.Errorf("%s: a warm call allocates %.0f KB (bound %.0f KB): pooled intermediates are leaking", name, perRun/1e3, bound/1e3)
	}
	for _, p := range params {
		assertNoDoublePut(t, p.RingQ())
		assertNoDoublePut(t, p.RingP())
	}
}

// TestActivationPoolSteadyState is TestLinearBSGSPoolSteadyState for the
// activation: a warm alpha10 ApplyActivation at LogN=10, on its exact-depth
// chain, draws every intermediate from the ring pools and puts it back once
// — the normalised input, each stage's even-power ladder, term chains and
// partial sums, each stage's output, the half-sign and the linear term.
// So does a call whose ciphertext has levels for the normalisation and the
// first two stages but not the third: its plan refuses it before any
// product, holding only the normalised input. So does a call whose last
// stage's top coefficient (1e30) cannot be encoded: MulConstTargetScale
// refuses it after two stages ran, with the third stage's ladder, its
// partial sum and the second stage's output in hand. The caller recycles
// each warm output after comparing it with the first. Before the
// activation's intermediates were pooled, a success allocated 12.1 MB and
// a failure 8.0 MB; now a success allocates 64 KB of ciphertext structs,
// level views, closures and scratch-slice headers, the short call 2 KB and
// the mid-plan failure 57 KB. The smallest poly a leak could cost is a
// level-1 one (16 KB), so each bound sits half of that above its steady
// state (the short call's bound predates its plan and is kept).
func TestActivationPoolSteadyState(t *testing.T) {
	act := &Activation{PAF: paf.MustNew(paf.FormAlpha10), Scale: 4}
	levels := (&MLP{Layers: []any{act}}).LevelsRequired()
	ctx, encryptor, _ := newHEContextLogN(t, 10, levels, nil)

	rng := rand.New(rand.NewSource(26))
	vec := make([]float64, ctx.Params.Slots())
	for i := range vec {
		vec[i] = (rng.Float64()*2 - 1) * act.Scale
	}
	pt, err := ctx.Enc.EncodeReals(vec, levels, ctx.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := encryptor.Encrypt(pt)
	// alpha10's stages are (13, 7, 7), depths (4, 3, 3): after the
	// normalisation level, two levels short leaves the third stage two of
	// the three it needs.
	shallow := ctx.Eval.DropLevel(ct, levels-2)

	var want *ckks.Ciphertext
	succeed := func() {
		out, err := ctx.ApplyActivation(act, ct)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = out
			return
		}
		same := out.C0.Equal(want.C0) && out.C1.Equal(want.C1)
		ctx.Eval.Recycle(out)
		if !same {
			t.Fatal("a warm run's output differs from the first run's: a pooled poly is shared")
		}
	}
	fail := func() {
		if _, err := ctx.ApplyActivation(act, shallow); err == nil {
			t.Fatal("the activation succeeded without levels for its last stage")
		}
	}
	// The same activation with its last stage's top coefficient out of
	// encoding range.
	huge := &Activation{PAF: act.PAF.Clone(), Scale: act.Scale}
	top := huge.PAF.Stages[len(huge.PAF.Stages)-1]
	top.Coeffs[len(top.Coeffs)-1] = 1e30
	failMid := func() {
		if _, err := ctx.ApplyActivation(huge, ct); err == nil {
			t.Fatal("the activation encoded a 1e30 coefficient")
		}
	}
	checkSteadyState(t, "success", succeed, 72e3, ctx.Params)
	checkSteadyState(t, "last stage short", fail, 54e3, ctx.Params)
	checkSteadyState(t, "mid-plan failure", failMid, 65e3, ctx.Params)
	succeed() // after the failures and the pool shuffles, still the same bytes
}
