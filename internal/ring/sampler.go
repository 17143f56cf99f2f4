package ring

//hennlint:deterministic-sampling seeded math/rand keeps every experiment reproducible; see the NOTE on Sampler
import (
	"fmt"
	"math/rand"
)

// Sampler draws random ring elements. It is deterministic given its seed,
// which keeps every experiment in this repository reproducible.
//
// NOTE: math/rand is NOT a cryptographically secure source. This is a
// research artifact reproducing latency/accuracy results; a production
// deployment must swap in crypto/rand-backed sampling. The public a_d of
// an evaluation key no longer comes from here: ckks expands it with
// AES-256-CTR (KeyStream) from a public seed, so the key ships the seed.
type Sampler struct {
	r   *Ring
	rng *rand.Rand
	// Gaussian parameter for error sampling (standard HE default).
	Sigma float64
	// Rejection bound for Gaussian samples, in standard deviations.
	Bound float64
}

// Format redacts the sampler's seeded state under every verb, so no fmt
// or log call can print what would replay its draws.
func (Sampler) Format(f fmt.State, _ rune) { fmt.Fprint(f, "ring.Sampler{REDACTED}") }

// NewSampler creates a sampler over r seeded deterministically.
func NewSampler(r *Ring, seed int64) *Sampler {
	return &Sampler{r: r, rng: rand.New(rand.NewSource(seed)), Sigma: 3.2, Bound: 6}
}

// Uniform fills a fresh polynomial at the given level with independently
// uniform residues per limb (a uniform element of R_{Q_level} by CRT).
func (s *Sampler) Uniform(level int) *Poly { return s.r.Uniform(s.rng, level) }

// Gaussian fills a polynomial with rounded Gaussian coefficients of standard
// deviation s.Sigma, truncated at s.Bound standard deviations.
func (s *Sampler) Gaussian(level int) *Poly {
	return s.r.SetSignedCoeffs(s.GaussianSigned(), level)
}

func roundHalfAway(v float64) float64 {
	if v >= 0 {
		return float64(int64(v + 0.5))
	}
	return float64(int64(v - 0.5))
}

// GaussianSigned returns N signed rounded-Gaussian coefficients. Use this
// when the same small error polynomial must be embedded into several rings
// (e.g. both the Q chain and the special prime P during key generation).
func (s *Sampler) GaussianSigned() []int64 {
	vals := make([]int64, s.r.N)
	s.GaussianSignedTo(vals)
	return vals
}

// GaussianSignedTo is GaussianSigned into a caller-owned buffer of N
// coefficients: the same draws, for a caller that samples many errors.
func (s *Sampler) GaussianSignedTo(vals []int64) {
	for j := range vals {
		for {
			v := s.rng.NormFloat64() * s.Sigma
			if v >= -s.Bound*s.Sigma && v <= s.Bound*s.Sigma {
				vals[j] = int64(roundHalfAway(v))
				break
			}
		}
	}
}

// TernarySigned returns N coefficients in {-1,0,1}, nonzero with the given
// density.
func (s *Sampler) TernarySigned(density float64) []int64 {
	n := s.r.N
	vals := make([]int64, n)
	for j := 0; j < n; j++ {
		u := s.rng.Float64()
		switch {
		case u < density/2:
			vals[j] = 1
		case u < density:
			vals[j] = -1
		}
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
