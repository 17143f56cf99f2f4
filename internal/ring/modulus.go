// Package ring implements arithmetic over the negacyclic polynomial rings
// R_q = Z_q[X]/(X^N + 1) used by the RNS-CKKS scheme in internal/ckks.
//
// The package provides:
//
//   - word-sized prime moduli with precomputed NTT twiddle factors,
//   - negacyclic number-theoretic transforms (forward/inverse),
//   - generation of NTT-friendly primes (q ≡ 1 mod 2N),
//   - RNS polynomials (one uint64 limb per prime) and limb-wise arithmetic,
//   - samplers for uniform, ternary and discrete-Gaussian polynomials.
//
// All moduli are required to be below 2^61 (MaxModulusBits). Single products
// reduce through a 128-bit intermediate (math/bits.Mul64/Div64); the hot
// loops instead reduce once at their boundary — lazy butterflies in the
// transforms (ntt.go), whose values stay below 4q (forward) or 2q (inverse)
// between stages and are folded to [0, q) only at the last, and unreduced
// 128-bit sums of products (acc128.go). The transforms run two butterfly
// stages per pass over the coefficients (radix 4), with the same twiddles
// and bounds as one stage per pass, so they return the same residues.
package ring

import (
	"fmt"
	"math/bits"
)

// MaxModulusBits is the largest supported bit size for a single prime.
// Every lazy bound in the package rests on q < 2^61:
//
//   - a+b never overflows uint64, and the high word of a 128-bit product of
//     residues is smaller than q, as bits.Div64 requires (MulMod);
//   - 4q < 2^63, so the transforms' butterflies may leave values in [0, 4q)
//     and correct them with a sign-bit fold (ntt.go);
//   - q² < 2^122, so MaxAcc128Terms = 64 products sum in 128 bits without
//     overflow (acc128.go) — which is why internal/ckks refuses a modulus
//     chain longer than 64 limbs: a key switch sums one product per gadget
//     digit, and with one special prime there is a digit per limb.
const MaxModulusBits = 61

// Modulus bundles a prime q with the precomputed constants needed for fast
// modular arithmetic and negacyclic NTTs of a fixed ring degree N.
type Modulus struct {
	Q uint64 // the prime
	N int    // ring degree this modulus was prepared for

	psi    uint64 // primitive 2N-th root of unity mod q
	psiInv uint64 // psi^-1 mod q
	nInv   uint64 // N^-1 mod q

	// Twiddle tables in bit-reversed order (Longa–Naehrig layout) together
	// with their Shoup precomputations for fast butterfly multiplication.
	psiFwd      []uint64
	psiFwdShoup []uint64
	psiInvRev   []uint64
	psiInvShoup []uint64
	nInvShoup   uint64
	// nInvPsi = N^-1·psiInvRev[1]: the inverse transform's last stage has a
	// single twiddle, so the division by N rides on its two multiplies.
	nInvPsi      uint64
	nInvPsiShoup uint64

	// muHi·2^64 + muLo = ⌊2^128/q⌋, the Barrett constant of ReduceAcc128.
	muHi, muLo uint64
}

// NewModulus prepares q for NTTs of degree n (a power of two). q must be
// prime with q ≡ 1 (mod 2n) and q < 2^61.
func NewModulus(q uint64, n int) (*Modulus, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ring: degree %d is not a positive power of two", n)
	}
	if bits.Len64(q) > MaxModulusBits {
		return nil, fmt.Errorf("ring: modulus %d exceeds %d bits", q, MaxModulusBits)
	}
	if q%(2*uint64(n)) != 1 {
		return nil, fmt.Errorf("ring: modulus %d is not congruent to 1 mod 2N=%d", q, 2*n)
	}
	psi, err := primitiveRoot2N(q, n)
	if err != nil {
		return nil, err
	}
	m := &Modulus{Q: q, N: n, psi: psi}
	m.psiInv = InvMod(psi, q)
	m.nInv = InvMod(uint64(n), q)
	var rem uint64
	m.muHi, rem = bits.Div64(1, 0, q)
	m.muLo, _ = bits.Div64(rem, 0, q)
	m.buildTwiddles()
	return m, nil
}

func (m *Modulus) buildTwiddles() {
	n := m.N
	logN := bits.Len(uint(n)) - 1
	m.psiFwd = make([]uint64, n)
	m.psiFwdShoup = make([]uint64, n)
	m.psiInvRev = make([]uint64, n)
	m.psiInvShoup = make([]uint64, n)

	fwd, inv := uint64(1), uint64(1)
	powsFwd := make([]uint64, n)
	powsInv := make([]uint64, n)
	for i := 0; i < n; i++ {
		powsFwd[i] = fwd
		powsInv[i] = inv
		fwd = MulMod(fwd, m.psi, m.Q)
		inv = MulMod(inv, m.psiInv, m.Q)
	}
	for i := 0; i < n; i++ {
		r := int(bitReverse(uint64(i), logN))
		m.psiFwd[i] = powsFwd[r]
		m.psiInvRev[i] = powsInv[r]
		m.psiFwdShoup[i] = shoupPrecomp(m.psiFwd[i], m.Q)
		m.psiInvShoup[i] = shoupPrecomp(m.psiInvRev[i], m.Q)
	}
	m.nInvShoup = shoupPrecomp(m.nInv, m.Q)
	if n > 1 {
		m.nInvPsi = MulMod(m.nInv, m.psiInvRev[1], m.Q)
		m.nInvPsiShoup = shoupPrecomp(m.nInvPsi, m.Q)
	}
}

// AddMod returns a+b mod q. Inputs must be < q.
func AddMod(a, b, q uint64) uint64 {
	s := a + b
	if s >= q {
		s -= q
	}
	return s
}

// SubMod returns a-b mod q. Inputs must be < q.
func SubMod(a, b, q uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + q - b
}

// NegMod returns -a mod q. Input must be < q.
func NegMod(a, q uint64) uint64 {
	if a == 0 {
		return 0
	}
	return q - a
}

// MulMod returns a*b mod q using a 128-bit intermediate product.
func MulMod(a, b, q uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi, lo, q)
	return rem
}

// shoupPrecomp returns floor(w * 2^64 / q), the Shoup constant for w.
// Requires w < q, which makes the 128/64 division safe.
func shoupPrecomp(w, q uint64) uint64 {
	quo, _ := bits.Div64(w, 0, q)
	return quo
}

// MulModShoup returns a*w mod q where wShoup = floor(w*2^64/q) was
// precomputed. Result is < q; a must be < q and w < q.
func MulModShoup(a, w, wShoup, q uint64) uint64 {
	hi, _ := bits.Mul64(a, wShoup)
	r := a*w - hi*q
	if r >= q {
		r -= q
	}
	return r
}

// PowMod returns a^e mod q by square-and-multiply.
func PowMod(a, e, q uint64) uint64 {
	result := uint64(1)
	base := a % q
	for e > 0 {
		if e&1 == 1 {
			result = MulMod(result, base, q)
		}
		base = MulMod(base, base, q)
		e >>= 1
	}
	return result
}

// InvMod returns a^-1 mod q for prime q (via Fermat's little theorem).
func InvMod(a, q uint64) uint64 { return PowMod(a, q-2, q) }

// bitReverse reverses the lowest n bits of v.
func bitReverse(v uint64, n int) uint64 {
	return bits.Reverse64(v) >> (64 - n)
}

// primitiveRoot2N finds a primitive 2N-th root of unity modulo q.
func primitiveRoot2N(q uint64, n int) (uint64, error) {
	two := uint64(2 * n)
	exp := (q - 1) / two
	// Deterministic scan keeps key generation reproducible across runs.
	for cand := uint64(2); cand < q && cand < 1<<20; cand++ {
		psi := PowMod(cand, exp, q)
		if psi == 0 || psi == 1 {
			continue
		}
		if PowMod(psi, uint64(n), q) == q-1 {
			return psi, nil
		}
	}
	return 0, fmt.Errorf("ring: no primitive 2N-th root of unity found for q=%d", q)
}
