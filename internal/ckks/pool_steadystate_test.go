package ckks

import (
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ring"
)

// TestEvaluatorPoolSteadyState pins the pooled-result discipline of the
// evaluator (the polypool analyzer's target invariant, checked dynamically):
// once the ring pools are warm and the caller recycles each result, repeated
// ops draw every polynomial from the pools instead of the heap — the result
// components, an op's private intermediate (MulRelinRescale's product,
// MulConstTargetScale's), and under each key switch the digits over Q and
// over P of the decomposition, the two accumulated components over each and
// the scratch limbs. A leak anywhere shows up here as one more poly
// allocated per op.
func TestEvaluatorPoolSteadyState(t *testing.T) {
	for name, lit := range map[string]ParametersLiteral{"one special prime": testLit, "two special primes": wideDigits} {
		tc := newTestContext(t, lit)
		eval := NewEvaluator(tc.params, tc.rlk).
			WithRotationKeys(tc.kg.GenRotationKeys(tc.sk, []int{1}, false))
		pt, err := tc.enc.Encode(make([]complex128, tc.params.Slots()), tc.params.MaxLevel(), tc.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		ct := tc.encr.Encrypt(pt)

		// steady is the measured allocations per op once the pools are warm
		// (the larger of the two literals'): the ciphertext structs, level
		// views, the fans' closures, the key switch's decomposition struct
		// and the scratch buffers' slice headers going back to their pool. A
		// leaked poly costs three more — its struct, its limb table, its
		// coefficients — so the bound sits one poly's worth above the steady
		// state, less one. At the commit before results came from the pool,
		// every row but rotate sat 6 to 12 above its bound.
		for _, op := range []struct {
			name   string
			run    func() (*Ciphertext, error)
			steady float64
		}{
			{"rotate", func() (*Ciphertext, error) { return eval.Rotate(ct, 1) }, 24},
			{"mul-relin-rescale", func() (*Ciphertext, error) { return eval.MulRelinRescale(ct, ct) }, 36},
			{"mul-const-target-scale", func() (*Ciphertext, error) { return eval.MulConstTargetScale(ct, 0.5, ct.Scale) }, 15},
			{"rescale", func() (*Ciphertext, error) { return eval.Rescale(ct) }, 11},
			{"add", func() (*Ciphertext, error) { return eval.Add(ct, ct) }, 9},
		} {
			once := func() {
				out, err := op.run()
				if err != nil {
					t.Fatal(err)
				}
				eval.Recycle(out)
			}
			for i := 0; i < 8; i++ {
				once() // warm the per-level pools
			}
			allocs := testing.AllocsPerRun(50, once)
			t.Logf("%s: %s allocates %.1f objects per op at steady state", name, op.name, allocs)
			if bound := op.steady + 2; allocs > bound && !raceEnabled {
				t.Errorf("%s: %s allocates %.1f objects per op at steady state (bound %.0f): a pooled poly is leaking",
					name, op.name, allocs, bound)
			}
		}
	}
}

// TestKeyGenAllocBound: key generation allocates the keys it returns and
// little else. Each digit's error is drawn into one signed buffer per key and
// embedded into pooled polys, and each rotation key's source secret is a
// pooled poly too, so on warm pools GenRelinearizationKey + GenRotationKeys
// allocate at most 1.05x the a_d and b_d they hand back. Before the scratch
// came from the pools, they allocated 1.66x here.
// Measured as the pool steady-state tests measure: one P, collector off.
func TestKeyGenAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under -race")
	}
	tc := newTestContext(t, seededKeyLits["serving"])
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var rlk *RelinearizationKey
	var rks *RotationKeySet
	gen := func() {
		rlk = tc.kg.GenRelinearizationKey(tc.sk)
		rks = tc.kg.GenRotationKeys(tc.sk, seededKeySteps, false)
	}
	gen() // warm the pools
	got := allocated(gen)
	all := []*SwitchingKey{&rlk.SwitchingKey}
	for _, key := range rks.keys {
		all = append(all, key)
	}
	keys := 0
	for _, key := range all {
		for _, d := range key.Digits {
			for _, p := range []*ring.Poly{d.BQ, d.AQ, d.BP, d.AP} {
				keys += 8 * len(p.Coeffs) * len(p.Coeffs[0])
			}
		}
	}
	t.Logf("keys of %d bytes allocated %d (%.3fx)", keys, got, float64(got)/float64(keys))
	if float64(got) > 1.05*float64(keys) {
		t.Errorf("generating %d bytes of keys allocated %d, over 1.05x", keys, got)
	}
}
