package ring

import (
	"fmt"
	"sync"
)

// Ring is a chain of RNS moduli sharing one degree N. Index i of the chain
// corresponds to prime q_i; a polynomial "at level L" carries limbs 0..L.
// All methods are safe for concurrent use: the precomputed tables are
// read-only after NewRing, per-limb work is fanned out via ForEachWorker, and
// scratch recycling goes through sync.Pools (see pool.go).
type Ring struct {
	N      int
	Moduli []*Modulus

	polyPools   []sync.Pool // polyPools[l] recycles *Poly at level l
	scratchPool sync.Pool   // recycles N-length []uint64 buffers
}

// NewRing prepares a ring of degree n over the given primes.
func NewRing(n int, primes []uint64) (*Ring, error) {
	r := &Ring{N: n, Moduli: make([]*Modulus, len(primes))}
	for i, q := range primes {
		m, err := NewModulus(q, n)
		if err != nil {
			return nil, fmt.Errorf("ring: prime %d (index %d): %w", q, i, err)
		}
		r.Moduli[i] = m
	}
	r.initPools()
	return r, nil
}

// Poly is an RNS polynomial: Coeffs[i][j] is the j-th coefficient modulo the
// i-th prime of the owning ring. The number of limbs determines the level
// (level = len(Coeffs)-1). Whether the limbs are in coefficient or NTT
// domain is tracked by the caller (internal/ckks keeps everything in NTT
// domain except during rescaling and key-switch decomposition).
type Poly struct {
	Coeffs [][]uint64

	// view marks polynomials returned by Truncate, whose limbs alias
	// another polynomial's storage; the pool refuses to recycle them.
	view bool
}

// NewPoly allocates a zero polynomial with limbs+0..level inclusive.
func (r *Ring) NewPoly(level int) *Poly {
	p := &Poly{Coeffs: make([][]uint64, level+1)}
	buf := make([]uint64, (level+1)*r.N)
	for i := range p.Coeffs {
		p.Coeffs[i] = buf[i*r.N : (i+1)*r.N : (i+1)*r.N]
	}
	return p
}

// Level returns len(Coeffs)-1.
func (p *Poly) Level() int { return len(p.Coeffs) - 1 }

// CopyNew returns a deep copy of p.
func (p *Poly) CopyNew() *Poly {
	out := &Poly{Coeffs: make([][]uint64, len(p.Coeffs))}
	buf := make([]uint64, len(p.Coeffs)*len(p.Coeffs[0]))
	n := len(p.Coeffs[0])
	for i := range p.Coeffs {
		out.Coeffs[i] = buf[i*n : (i+1)*n : (i+1)*n]
		copy(out.Coeffs[i], p.Coeffs[i])
	}
	return out
}

// Truncate drops limbs above level, returning a view sharing storage.
func (p *Poly) Truncate(level int) *Poly {
	return &Poly{Coeffs: p.Coeffs[:level+1], view: true}
}

// minLevel returns the smallest level among the operands.
func minLevel(ps ...*Poly) int {
	l := ps[0].Level()
	for _, p := range ps[1:] {
		if p.Level() < l {
			l = p.Level()
		}
	}
	return l
}

// Add sets out = a + b limb-wise up to the smallest common level.
func (r *Ring) Add(a, b, out *Poly) {
	level := minLevel(a, b, out)
	r.forLimbs(level, func(_, i int) {
		q := r.Moduli[i].Q
		ai, bi, oi := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range oi {
			oi[j] = AddMod(ai[j], bi[j], q)
		}
	})
}

// Neg sets out = -a limb-wise.
func (r *Ring) Neg(a, out *Poly) {
	level := minLevel(a, out)
	r.forLimbs(level, func(_, i int) {
		q := r.Moduli[i].Q
		ai, oi := a.Coeffs[i], out.Coeffs[i]
		for j := range oi {
			oi[j] = NegMod(ai[j], q)
		}
	})
}

// MulCoeffs sets out = a ⊙ b (pointwise product); both operands must be in
// NTT domain, making this a negacyclic polynomial multiplication.
func (r *Ring) MulCoeffs(a, b, out *Poly) {
	level := minLevel(a, b, out)
	r.forLimbs(level, func(_, i int) {
		q := r.Moduli[i].Q
		ai, bi, oi := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range oi {
			oi[j] = MulMod(ai[j], bi[j], q)
		}
	})
}

// MulCoeffsThenAdd sets out += a ⊙ b (pointwise, NTT domain).
func (r *Ring) MulCoeffsThenAdd(a, b, out *Poly) {
	level := minLevel(a, b, out)
	r.forLimbs(level, func(_, i int) {
		q := r.Moduli[i].Q
		ai, bi, oi := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range oi {
			oi[j] = AddMod(oi[j], MulMod(ai[j], bi[j], q), q)
		}
	})
}

// MulScalar sets out = a * scalar where scalar is reduced per limb.
func (r *Ring) MulScalar(a *Poly, scalar []uint64, out *Poly) {
	level := minLevel(a, out)
	r.forLimbs(level, func(_, i int) {
		q := r.Moduli[i].Q
		s := scalar[i] % q
		ai, oi := a.Coeffs[i], out.Coeffs[i]
		for j := range oi {
			oi[j] = MulMod(ai[j], s, q)
		}
	})
}

// NTT transforms all limbs of p in place to the evaluation domain,
// fanning the per-limb transforms across the worker pool.
func (r *Ring) NTT(p *Poly) {
	r.forLimbs(p.Level(), func(_, i int) {
		r.Moduli[i].NTT(p.Coeffs[i])
	})
}

// INTT transforms all limbs of p in place back to coefficient domain,
// fanning the per-limb transforms across the worker pool.
func (r *Ring) INTT(p *Poly) {
	r.forLimbs(p.Level(), func(_, i int) {
		r.Moduli[i].INTT(p.Coeffs[i])
	})
}

// Zero clears all limbs of p.
func (p *Poly) Zero() {
	for i := range p.Coeffs {
		clear(p.Coeffs[i])
	}
}

// Equal reports whether a and b have identical limbs.
func (p *Poly) Equal(other *Poly) bool {
	if len(p.Coeffs) != len(other.Coeffs) {
		return false
	}
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			if p.Coeffs[i][j] != other.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}
