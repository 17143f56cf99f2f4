package ckks

import "testing"

// TestRotatePoolSteadyState pins the pooled-scratch discipline on the
// rotation hot path (the polypool analyzer's target invariant, checked
// dynamically): once the ring pools are warm and the caller returns the
// result components, repeated rotations draw every polynomial from the
// pools instead of the heap — the digits over Q and over P of the
// decomposition, the two accumulated components over each, the scratch
// limbs. A leak anywhere on the decompose / switchKey / modDown path shows
// up here as one more poly allocated per op.
func TestRotatePoolSteadyState(t *testing.T) {
	for _, lit := range []ParametersLiteral{testLit, wideDigits} {
		rotatePoolSteadyState(t, lit)
	}
}

func rotatePoolSteadyState(t *testing.T, lit ParametersLiteral) {
	tc := newTestContext(t, lit)
	eval := NewEvaluator(tc.params, tc.rlk).
		WithRotationKeys(tc.kg.GenRotationKeys(tc.sk, []int{1}, false))
	rq := tc.params.RingQ()

	pt, err := tc.enc.Encode(make([]complex128, tc.params.Slots()), tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encr.Encrypt(pt)

	rotateOnce := func() {
		out, err := eval.Rotate(ct, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The result components are pool polys the rotation hands to the
		// caller; putting them back is what closes the cycle.
		rq.PutPoly(out.C0)
		rq.PutPoly(out.C1)
	}
	for i := 0; i < 8; i++ {
		rotateOnce() // warm the per-level pools
	}
	allocs := testing.AllocsPerRun(50, rotateOnce)
	t.Logf("allocs per rotation at steady state: %.1f", allocs)

	// Measured steady state is a stable 24 allocations per op (the
	// ciphertext and decomposition structs, the fans' closures, the scratch
	// buffers' slice headers going back to their pool); race
	// instrumentation adds 12 to 14. A leaked poly costs three more — its
	// struct, its limb table, its coefficients — so the bound sits one
	// poly's worth above the steady state, less one; the race build's only
	// catches a leak of two.
	maxSteadyStateAllocs := 26.0
	if raceEnabled {
		maxSteadyStateAllocs = 42
	}
	if allocs > maxSteadyStateAllocs {
		t.Fatalf("rotation allocates %.1f objects per op at steady state (bound %.0f): a pooled poly is leaking",
			allocs, maxSteadyStateAllocs)
	}
}
