package ckks

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based tests on the homomorphic invariants: for random plaintext
// vectors, the scheme must commute with the corresponding slot-wise
// arithmetic within noise tolerance.

func quickVectors(seed int64, n int, bound float64) ([]complex128, []complex128) {
	rng := rand.New(rand.NewSource(seed))
	a := make([]complex128, n)
	b := make([]complex128, n)
	for i := range a {
		a[i] = complex((rng.Float64()*2-1)*bound, (rng.Float64()*2-1)*bound)
		b[i] = complex((rng.Float64()*2-1)*bound, (rng.Float64()*2-1)*bound)
	}
	return a, b
}

func TestQuickHomomorphicAddition(t *testing.T) {
	tc := newTestContext(t, testLit)
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}
	err := quick.Check(func(seed int64) bool {
		a, b := quickVectors(seed, tc.params.Slots(), 1)
		pa, _ := tc.enc.Encode(a, 2, tc.params.DefaultScale())
		pb, _ := tc.enc.Encode(b, 2, tc.params.DefaultScale())
		sum, err := tc.eval.Add(tc.encr.Encrypt(pa), tc.encr.Encrypt(pb))
		if err != nil {
			return false
		}
		got := tc.enc.Decode(tc.decr.Decrypt(sum))
		for i := range a {
			if cmplx.Abs(got[i]-(a[i]+b[i])) > 1e-5 {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickHomomorphicMultiplication(t *testing.T) {
	tc := newTestContext(t, testLit)
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(2))}
	err := quick.Check(func(seed int64) bool {
		a, b := quickVectors(seed, tc.params.Slots(), 1)
		pa, _ := tc.enc.Encode(a, tc.params.MaxLevel(), tc.params.DefaultScale())
		pb, _ := tc.enc.Encode(b, tc.params.MaxLevel(), tc.params.DefaultScale())
		prod, err := tc.eval.MulRelinRescale(tc.encr.Encrypt(pa), tc.encr.Encrypt(pb))
		if err != nil {
			return false
		}
		got := tc.enc.Decode(tc.decr.Decrypt(prod))
		for i := range a {
			if cmplx.Abs(got[i]-a[i]*b[i]) > 1e-4 {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickScalarDistributivity(t *testing.T) {
	// c·(a + b) == c·a + c·b through the encrypted path.
	tc := newTestContext(t, testLit)
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(3))}
	err := quick.Check(func(seed int64, craw int8) bool {
		c := float64(craw)/32 + 0.25
		a, b := quickVectors(seed, tc.params.Slots(), 1)
		pa, _ := tc.enc.Encode(a, tc.params.MaxLevel(), tc.params.DefaultScale())
		pb, _ := tc.enc.Encode(b, tc.params.MaxLevel(), tc.params.DefaultScale())
		ca := tc.encr.Encrypt(pa)
		cb := tc.encr.Encrypt(pb)

		sum, err := tc.eval.Add(ca, cb)
		if err != nil {
			return false
		}
		lhs, err := tc.eval.MulConstTargetScale(sum, c, sum.Scale)
		if err != nil {
			return false
		}
		ta, err := tc.eval.MulConstTargetScale(ca, c, ca.Scale)
		if err != nil {
			return false
		}
		tb, err := tc.eval.MulConstTargetScale(cb, c, cb.Scale)
		if err != nil {
			return false
		}
		rhs, err := tc.eval.Add(ta, tb)
		if err != nil {
			return false
		}
		gl := tc.enc.Decode(tc.decr.Decrypt(lhs))
		gr := tc.enc.Decode(tc.decr.Decrypt(rhs))
		for i := range gl {
			if cmplx.Abs(gl[i]-gr[i]) > 1e-5 {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}
