package ring

import (
	"fmt"
	"math"
)

// Sampler draws random ring elements from one KeyStream: uniform residues,
// ternary polynomials (the secret and the encryption mask) and the discrete
// Gaussian error. It is deterministic given its key.
//
// NOTE: the keystream is AES-256-CTR, but a sampler is only as unpredictable
// as its key. Keys widened from an int64 seed (SeedKey, so NewSampler and
// ckks's int64 doors) are distinct for distinct seeds, but a small
// caller-chosen seed is found by search: a production deployment draws its
// seed from crypto/rand.
type Sampler struct {
	r  *Ring
	ks *KeyStream
}

// Format redacts the sampler's stream under every verb, so no fmt or log
// call can print what would replay its draws.
func (Sampler) Format(f fmt.State, _ rune) { fmt.Fprint(f, "ring.Sampler{REDACTED}") }

// NewSampler returns the sampler over r of the key SeedKey widens seed to.
func NewSampler(r *Ring, seed int64) *Sampler { return NewKeyedSampler(r, SeedKey(seed)) }

// NewKeyedSampler returns a sampler over r that draws from key's keystream.
func NewKeyedSampler(r *Ring, key [32]byte) *Sampler {
	return &Sampler{r: r, ks: NewKeyStream(key)}
}

// Uniform fills a fresh polynomial at the given level with independently
// uniform residues per limb (a uniform element of R_{Q_level} by CRT).
func (s *Sampler) Uniform(level int) *Poly { return s.r.Uniform(s.ks, level) }

// Gaussian fills a polynomial with discrete Gaussian coefficients
// (GaussianSigned's distribution).
func (s *Sampler) Gaussian(level int) *Poly {
	vals := make([]int64, s.r.N)
	s.GaussianSigned(vals)
	return s.r.SetSignedCoeffs(vals, level)
}

// gaussianSigma is the error's standard deviation, the standard HE default.
// The distribution is a normal of this deviation truncated at 6σ and rounded
// to the nearest integer, so |e| ≤ 19.
const gaussianSigma = 3.2

// gaussianCDT[k] is 2^63·P(|e| ≤ k) for k = 0…18; P(|e| ≤ 19) is 1. It is
// built once from math.Erf: |e| ≤ k exactly when the normal falls within
// k + 1/2, conditioned on falling within 6σ.
var gaussianCDT = func() (cdt [19]uint64) {
	z := math.Erf(6 / math.Sqrt2)
	for k := range cdt {
		p := math.Erf((float64(k)+0.5)/(gaussianSigma*math.Sqrt2)) / z
		cdt[k] = uint64(math.Ldexp(p, 63))
	}
	return cdt
}()

// GaussianSigned fills vals with signed discrete Gaussian coefficients, one
// keystream word each: the top 63 bits u pick |e|, the count of gaussianCDT
// entries at or below u, and the low bit picks the sign. The whole table is
// scanned without a branch, so the time does not depend on the draw. Signed,
// one small error embeds into several rings (both the Q chain and the
// special primes P during key generation).
func (s *Sampler) GaussianSigned(vals []int64) {
	for j := range vals {
		w := s.ks.Uint64()
		u, e := w>>1, int64(0)
		for _, c := range gaussianCDT {
			e += int64((c - u - 1) >> 63) // c, u < 2^63: the top bit is u >= c
		}
		vals[j] = e - 2*e*int64(w&1)
	}
}

// TernarySigned returns N coefficients in {-1, 0, 1}: 1, -1 or 0 as a
// residue drawn uniform in [0, m) by the one uniform loop is 0, 1 or larger,
// so each sign has probability 1/m. m = 3 is the uniform ternary secret
// (nonzero with probability 2/3), m = 4 the encryption mask (1/2).
func (s *Sampler) TernarySigned(m uint64) []int64 {
	res := make([]uint64, s.r.N)
	uniformLimb(s.ks, m, res)
	vals := make([]int64, len(res))
	for j, r := range res {
		vals[j] = [3]int64{1, -1, 0}[min(r, 2)]
	}
	return vals
}

// SetSignedCoeffs writes the signed coefficient vector into all limbs of a
// fresh polynomial at the given level.
func (r *Ring) SetSignedCoeffs(vals []int64, level int) *Poly {
	p := r.NewPoly(level)
	r.SetSignedCoeffsTo(vals, p)
	return p
}

// SetSignedCoeffsTo is SetSignedCoeffs into p: every limb is overwritten, so
// p may come from GetPolyRaw.
func (r *Ring) SetSignedCoeffsTo(vals []int64, p *Poly) {
	for i := range p.Coeffs {
		q := r.Moduli[i].Q
		ci := p.Coeffs[i]
		for j := range ci {
			v := vals[j]
			if v >= 0 {
				ci[j] = uint64(v) % q
			} else {
				ci[j] = q - uint64(-v)%q
			}
		}
	}
}
