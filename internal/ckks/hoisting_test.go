package ckks

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ring"
)

// TestGaloisNTTIndexMatchesCoefficientAutomorphism pins the NTT-domain
// permutation tables against the definitional coefficient-domain
// automorphism: for random polynomials and every Galois element the hoisted
// path uses, permuting NTT(a) must equal NTT(φ_k(a)) bit-exactly.
func TestGaloisNTTIndexMatchesCoefficientAutomorphism(t *testing.T) {
	tc := newTestContext(t, testLit)
	rq := tc.params.RingQ()
	n := tc.params.N()
	level := tc.params.MaxLevel()
	rng := rand.New(rand.NewSource(51))

	elements := []int{tc.params.galoisElement(1), tc.params.galoisElement(3),
		tc.params.galoisElement(tc.params.Slots() - 2), 2*n - 1}
	for _, k := range elements {
		a := rq.NewPoly(level)
		for i := range a.Coeffs {
			q := rq.Moduli[i].Q
			for j := 0; j < n; j++ {
				a.Coeffs[i][j] = rng.Uint64() % q
			}
		}
		// Reference: automorphism in coefficient domain, then NTT.
		want := rq.NewPoly(level)
		applyAutomorphism(rq, a, k, want)
		rq.NTT(want)
		// Hoisted path: NTT first, then the slot permutation.
		ntt := a.CopyNew()
		rq.NTT(ntt)
		idx := tc.params.galoisNTTIndex(k)
		got := rq.NewPoly(level)
		for i := range got.Coeffs {
			for j := 0; j < n; j++ {
				got.Coeffs[i][j] = ntt.Coeffs[i][idx[j]]
			}
		}
		if !got.Equal(want) {
			t.Fatalf("k=%d: NTT-domain permutation differs from coefficient automorphism", k)
		}
	}
}

// applyAutomorphism computes out(X) = in(X^k) in coefficient domain, per
// limb: coefficient i maps to index i·k mod 2N, negated when it crosses N.
// It is the definitional automorphism the NTT-domain tables are checked
// against. out must not alias in.
func applyAutomorphism(r *ring.Ring, in *ring.Poly, k int, out *ring.Poly) {
	n := r.N
	m := 2 * n
	for limb := range in.Coeffs {
		q := r.Moduli[limb].Q
		src := in.Coeffs[limb]
		dst := out.Coeffs[limb]
		for i := 0; i < n; i++ {
			j := i * k % m
			if j < n {
				dst[j] = src[i]
			} else {
				dst[j-n] = ring.NegMod(src[i], q)
			}
		}
	}
}

// wideDigits is testLit with two special primes: digits of two limbs and a
// last digit of one, so tests that loop over both literals cover α = 1 and a
// grouped gadget with a short digit.
var wideDigits = ParametersLiteral{LogN: testLit.LogN, LogQ: testLit.LogQ, LogP: []int{55, 55}, LogScale: testLit.LogScale}

// TestRotateHoistedMatchesRotate: the two rotation paths are one arithmetic.
// For a full rotation set — negative and wrapped steps included — at the
// top level and on a rescaled ciphertext, a plain rotation and a hoisted one
// off a shared decomposition return the same bytes, and those decrypt to the
// expected plaintext shift.
func TestRotateHoistedMatchesRotate(t *testing.T) {
	slots := 64 // testLit has LogN 7
	steps := []int{1, 3, 7, 13, 31, slots - 1, -2, -slots + 5, slots + 5}
	for _, lit := range []ParametersLiteral{testLit, wideDigits} {
		tc := newTestContext(t, lit)
		tc.eval.WithRotationKeys(tc.kg.GenRotationKeys(tc.sk, steps, false))
		values := randomComplex(rand.New(rand.NewSource(52)), slots, 0.5)
		pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
		top := tc.encr.Encrypt(pt)
		lower, err := tc.eval.MulRelinRescale(top, top)
		if err != nil {
			t.Fatal(err)
		}
		squares := make([]complex128, slots)
		for i, v := range values {
			squares[i] = v * v
		}
		for _, c := range []struct {
			ct     *Ciphertext
			values []complex128
		}{{top, values}, {lower, squares}} {
			dec := tc.eval.DecomposeHoisted(c.ct)
			for _, step := range steps {
				hoisted, err1 := tc.eval.RotateHoisted(dec, step)
				plain, err2 := tc.eval.Rotate(c.ct, step)
				if err1 != nil || err2 != nil {
					t.Fatalf("step %d: %v, %v", step, err1, err2)
				}
				if !ctEqual(hoisted, plain) {
					t.Fatalf("α=%d level %d step %d: hoisted and plain rotation differ", len(lit.LogP), c.ct.Level, step)
				}
				want := make([]complex128, slots)
				for i := range want {
					want[i] = c.values[((i+step)%slots+slots)%slots]
				}
				if e := maxErr(want, tc.enc.Decode(tc.decr.Decrypt(hoisted))); e > 1e-4 {
					t.Fatalf("α=%d level %d step %d: rotation error %g", len(lit.LogP), c.ct.Level, step, e)
				}
			}
			dec.Release()
		}
	}
}

// TestKeySwitchesLeaveInputsUntouched is the property behind a bug class
// lattigo fixed more than once: an operation that scribbles on its operands.
// Rotate, RotateHoisted, MulRelinRescale and Rescale take their inputs
// through in-place transforms of copies; the inputs' bytes must not change.
func TestKeySwitchesLeaveInputsUntouched(t *testing.T) {
	for _, lit := range []ParametersLiteral{testLit, wideDigits} {
		tc := newTestContext(t, lit)
		tc.eval.WithRotationKeys(tc.kg.GenRotationKeys(tc.sk, []int{3}, false))
		rng := rand.New(rand.NewSource(56))
		encrypt := func() *Ciphertext {
			pt, _ := tc.enc.Encode(randomComplex(rng, tc.params.Slots(), 1), tc.params.MaxLevel(), tc.params.DefaultScale())
			return tc.encr.Encrypt(pt)
		}
		a, b := encrypt(), encrypt()
		a0, b0 := a.CopyNew(), b.CopyNew()
		dec := tc.eval.DecomposeHoisted(a)
		_, err0 := tc.eval.MulRelinRescale(a, b)
		_, err1 := tc.eval.Rotate(a, 3)
		_, err2 := tc.eval.RotateHoisted(dec, 3)
		_, err3 := tc.eval.Rescale(b)
		dec.Release()
		if err0 != nil || err1 != nil || err2 != nil || err3 != nil {
			t.Fatal(err0, err1, err2, err3)
		}
		if !ctEqual(a, a0) || !ctEqual(b, b0) {
			t.Fatalf("α=%d: an operation modified its input", len(lit.LogP))
		}
	}
}

// TestRotateHoistedZeroAndErrors covers the degenerate paths: step 0 copies,
// missing keys error exactly like the plain path.
func TestRotateHoistedZeroAndErrors(t *testing.T) {
	tc, _ := newRotationContext(t, []int{1})
	pt, _ := tc.enc.Encode(make([]complex128, tc.params.Slots()), 1, tc.params.DefaultScale())
	ct := tc.encr.Encrypt(pt)
	dec := tc.eval.DecomposeHoisted(ct)
	defer dec.Release()

	zero, err := tc.eval.RotateHoisted(dec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ctEqual(zero, ct) {
		t.Fatal("zero-step hoisted rotation is not an exact copy")
	}
	if _, err := tc.eval.RotateHoisted(dec, 5); err == nil {
		t.Fatal("expected missing-key error")
	}
	bare := NewEvaluator(tc.params, tc.rlk)
	bareDec := bare.DecomposeHoisted(ct)
	defer bareDec.Release()
	if _, err := bare.RotateHoisted(bareDec, 1); err == nil {
		t.Fatal("expected no-keys error")
	}
}

// TestRotateHoistedConcurrentSharedEvaluator drives hoisted rotations from
// many goroutines over one shared evaluator — each worker with its own
// per-call decomposition, plus one read-only decomposition shared by all —
// under the race detector via `make test`. Results must be bit-identical to
// the serial reference (each limb's sum is reduced once, whoever computes it).
func TestRotateHoistedConcurrentSharedEvaluator(t *testing.T) {
	steps := []int{1, 3, 7, -2}
	tc, _ := newRotationContext(t, steps)
	rng := rand.New(rand.NewSource(55))
	values := randomComplex(rng, tc.params.Slots(), 1)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encr.Encrypt(pt)

	shared := tc.eval.DecomposeHoisted(ct)
	defer shared.Release()
	want := make(map[int]*Ciphertext, len(steps))
	for _, s := range steps {
		r, err := tc.eval.RotateHoisted(shared, s)
		if err != nil {
			t.Fatal(err)
		}
		want[s] = r
	}

	for _, fanOut := range []int{1, 4} {
		ring.SetParallelism(fanOut)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				own := tc.eval.DecomposeHoisted(ct)
				defer own.Release()
				for r := 0; r < 3; r++ {
					for _, s := range steps {
						dec := shared
						if g%2 == 0 {
							dec = own
						}
						got, err := tc.eval.RotateHoisted(dec, s)
						if err != nil {
							t.Errorf("step %d: %v", s, err)
							return
						}
						if !ctEqual(got, want[s]) {
							t.Errorf("fanOut=%d step %d: concurrent hoisted rotation differs from serial", fanOut, s)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
	ring.SetParallelism(0)
	if t.Failed() {
		t.FailNow()
	}
}
