package ckks

import (
	"math/rand"
	"runtime"
	"testing"
)

func newRotationContext(t *testing.T, steps []int) (*testContext, *RotationKeySet) {
	t.Helper()
	tc := newTestContext(t, testLit)
	rks := tc.kg.GenRotationKeys(tc.sk, steps, false)
	tc.eval.WithRotationKeys(rks)
	return tc, rks
}

func TestRotateMatchesPlaintextShift(t *testing.T) {
	tc, _ := newRotationContext(t, []int{1, 3, 7})
	rng := rand.New(rand.NewSource(21))
	values := randomComplex(rng, tc.params.Slots(), 1)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encr.Encrypt(pt)

	for _, step := range []int{1, 3, 7} {
		rot, err := tc.eval.Rotate(ct, step)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		got := tc.enc.Decode(tc.decr.Decrypt(rot))
		slots := tc.params.Slots()
		want := make([]complex128, slots)
		for i := range want {
			want[i] = values[(i+step)%slots]
		}
		if e := maxErr(want, got); e > 1e-4 {
			t.Fatalf("step %d: rotation error %g", step, e)
		}
		if rot.Level != ct.Level {
			t.Fatalf("rotation changed level: %d -> %d", ct.Level, rot.Level)
		}
		if rot.Scale != ct.Scale {
			t.Fatalf("rotation changed scale")
		}
	}
}

func TestRotateNegativeAndWraparound(t *testing.T) {
	slots := 64 // testLit has LogN 7
	tc, _ := newRotationContext(t, []int{-2, slots + 5})
	rng := rand.New(rand.NewSource(22))
	values := randomComplex(rng, slots, 1)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encr.Encrypt(pt)

	for _, step := range []int{-2, slots + 5} {
		rot, err := tc.eval.Rotate(ct, step)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		got := tc.enc.Decode(tc.decr.Decrypt(rot))
		want := make([]complex128, slots)
		for i := range want {
			want[i] = values[((i+step)%slots+slots)%slots]
		}
		if e := maxErr(want, got); e > 1e-4 {
			t.Fatalf("step %d: error %g", step, e)
		}
	}
}

func TestRotateZeroIsIdentity(t *testing.T) {
	tc, _ := newRotationContext(t, []int{1})
	values := make([]complex128, tc.params.Slots())
	values[0] = 1
	pt, _ := tc.enc.Encode(values, 1, tc.params.DefaultScale())
	ct := tc.encr.Encrypt(pt)
	rot, err := tc.eval.Rotate(ct, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(values, tc.enc.Decode(tc.decr.Decrypt(rot))); e > 1e-5 {
		t.Fatalf("zero rotation error %g", e)
	}
}

func TestRotateMissingKey(t *testing.T) {
	tc, _ := newRotationContext(t, []int{1})
	pt, _ := tc.enc.Encode(make([]complex128, tc.params.Slots()), 1, tc.params.DefaultScale())
	ct := tc.encr.Encrypt(pt)
	if _, err := tc.eval.Rotate(ct, 5); err == nil {
		t.Fatal("expected missing-key error")
	}
	bare := NewEvaluator(tc.params, tc.rlk)
	if _, err := bare.Rotate(ct, 1); err == nil {
		t.Fatal("expected no-keys error")
	}
}

func TestRotateComposesWithArithmetic(t *testing.T) {
	// rot(a) + rot(b) == rot(a+b): rotation must commute with addition.
	tc, _ := newRotationContext(t, []int{4})
	rng := rand.New(rand.NewSource(24))
	a := randomComplex(rng, tc.params.Slots(), 1)
	b := randomComplex(rng, tc.params.Slots(), 1)
	pa, _ := tc.enc.Encode(a, tc.params.MaxLevel(), tc.params.DefaultScale())
	pb, _ := tc.enc.Encode(b, tc.params.MaxLevel(), tc.params.DefaultScale())
	ca := tc.encr.Encrypt(pa)
	cb := tc.encr.Encrypt(pb)

	ra, err := tc.eval.Rotate(ca, 4)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := tc.eval.Rotate(cb, 4)
	if err != nil {
		t.Fatal(err)
	}
	lhs, err := tc.eval.Add(ra, rb)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := tc.eval.Add(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	rhs, err := tc.eval.Rotate(sum, 4)
	if err != nil {
		t.Fatal(err)
	}
	gl := tc.enc.Decode(tc.decr.Decrypt(lhs))
	gr := tc.enc.Decode(tc.decr.Decrypt(rhs))
	if e := maxErr(gl, gr); e > 1e-4 {
		t.Fatalf("rotation does not commute with addition: %g", e)
	}
}

// TestGaloisElementMatchesNaivePowerLoop pins the square-and-multiply
// galoisElement against the definitional O(step) power loop for every step
// in [0, slots) at several ring sizes (plus negative and wrapped steps).
func TestGaloisElementMatchesNaivePowerLoop(t *testing.T) {
	naive := func(p *Parameters, step int) int {
		m := 2 * p.N()
		step = ((step % (m / 4)) + m/4) % (m / 4)
		k := 1
		for i := 0; i < step; i++ {
			k = k * 5 % m
		}
		return k
	}
	for _, logN := range []int{5, 7, 10} {
		params, err := NewParameters(ParametersLiteral{
			LogN: logN, LogQ: []int{50, 40}, LogP: []int{55}, LogScale: 40})
		if err != nil {
			t.Fatal(err)
		}
		slots := params.Slots()
		for step := 0; step < slots; step++ {
			if got, want := params.galoisElement(step), naive(params, step); got != want {
				t.Fatalf("logN=%d step=%d: galoisElement=%d naive=%d", logN, step, got, want)
			}
		}
		for _, step := range []int{-1, -slots + 3, slots, 3*slots + 5} {
			if got, want := params.galoisElement(step), naive(params, step); got != want {
				t.Fatalf("logN=%d step=%d: galoisElement=%d naive=%d", logN, step, got, want)
			}
		}
	}
}

// TestGenRotationKeysDeterministic pins the parallel key generation design:
// every switching key draws from a stream derived from (seed, Galois
// element), so the set is bit-identical across runs, step orderings and
// worker schedules — on one P, on three (an uneven last round) and on four.
// Generation builds each key's Galois table and caches none on the
// parameters.
func TestGenRotationKeysDeterministic(t *testing.T) {
	tc := newTestContext(t, testLit)
	a := tc.kg.GenRotationKeys(tc.sk, []int{1, 2, 9}, false)
	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 3, 4} {
		params, err := NewParameters(testLit)
		if err != nil {
			t.Fatal(err)
		}
		prev := runtime.GOMAXPROCS(procs)
		b := NewKeyGenerator(params, 12345).GenRotationKeys(tc.sk, []int{9, 1, 2, 1}, false)
		runtime.GOMAXPROCS(prev)
		bb, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(ab) != string(bb) {
			t.Errorf("GOMAXPROCS=%d: rotation key sets differ across orderings/runs", procs)
		}
		params.galoisIdx.Range(func(k, _ any) bool {
			t.Errorf("GOMAXPROCS=%d: key generation cached the Galois table of k=%v", procs, k)
			return true
		})
	}
}
