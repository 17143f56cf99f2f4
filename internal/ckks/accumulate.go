package ckks

import (
	"fmt"

	"github.com/efficientfhe/smartpaf/internal/ring"
)

// PlainSum is a running Σ ct_i ⊙ pt_i at one level — the inner sum of a
// diagonal-method linear layer. The products are added unreduced into pooled
// 128-bit accumulators (ring.MulAcc128) and reduced once, by Sum, so a term
// costs a multiply and an add-with-carry per coefficient and allocates
// nothing. The residues Sum returns are exactly those of MulPlain followed
// by Add per term.
//
// A PlainSum is per-call state like a HoistedDecomposition: create it, add
// terms, take any number of Sums (each leaves it empty), and Release it on
// every path. It is not safe for concurrent use.
type PlainSum struct {
	ev     *Evaluator
	level  int
	scale  float64
	c0, c1 acc128
	terms  int // products held unreduced; 0 means no accumulators are held
}

// acc128 is a polynomial's worth of unreduced 128-bit sums: the high and low
// words live in two pooled polys (see ring.MulAcc128).
type acc128 struct {
	hi, lo *ring.Poly
}

func getAcc128(r *ring.Ring, level int) acc128 {
	return acc128{hi: r.GetPoly(level), lo: r.GetPoly(level)}
}

// mulAdd adds x ⊙ y into limb j of the accumulator.
func (a acc128) mulAdd(j int, x, y []uint64) {
	ring.MulAcc128(a.hi.Coeffs[j], a.lo.Coeffs[j], x, y)
}

// put returns both polys to the pool.
func (a acc128) put(r *ring.Ring) {
	r.PutPoly(a.hi)
	r.PutPoly(a.lo)
}

// reduce performs the accumulator's one modular reduction, in place in its
// low-word poly, which it returns; the high-word poly goes back to the pool.
//
//hennlint:transfers-ownership the returned poly is pooled; the caller must PutPoly it
func (a acc128) reduce(r *ring.Ring) *ring.Poly {
	for j, m := range r.Moduli[:len(a.lo.Coeffs)] {
		m.ReduceAcc128(a.hi.Coeffs[j], a.lo.Coeffs[j], a.lo.Coeffs[j])
	}
	r.PutPoly(a.hi)
	return a.lo
}

// NewPlainSum returns an empty sum of terms at the given level.
func (ev *Evaluator) NewPlainSum(level int) *PlainSum {
	return &PlainSum{ev: ev, level: level}
}

// MulPlainThenAdd adds ct ⊙ pt to the sum. Both operands must reach the
// sum's level (higher limbs are ignored), and every term's product scale
// must match the first's.
func (s *PlainSum) MulPlainThenAdd(ct *Ciphertext, pt *Plaintext) error {
	if ct.Level < s.level || pt.Level < s.level {
		return fmt.Errorf("ckks: term at level (%d, %d) below the sum's level %d", ct.Level, pt.Level, s.level)
	}
	rq := s.ev.params.RingQ()
	scale := ct.Scale * pt.Scale
	switch s.terms {
	case 0:
		s.c0, s.c1 = getAcc128(rq, s.level), getAcc128(rq, s.level)
		s.scale = scale
	case ring.MaxAcc128Terms:
		// Full: fold to residues, which count as one term.
		s.c0 = acc128{hi: rq.GetPoly(s.level), lo: s.c0.reduce(rq)}
		s.c1 = acc128{hi: rq.GetPoly(s.level), lo: s.c1.reduce(rq)}
		s.terms = 1
	}
	if err := s.ev.checkScales(s.scale, scale); err != nil {
		return err
	}
	ring.ForEachWorker(s.level+1, rq.N, nil, func(_, j int) {
		s.c0.mulAdd(j, ct.C0.Coeffs[j], pt.Value.Coeffs[j])
		s.c1.mulAdd(j, ct.C1.Coeffs[j], pt.Value.Coeffs[j])
	})
	s.terms++
	return nil
}

// Sum reduces the accumulated terms to a ciphertext and leaves the sum
// empty, ready for the next block. The result's polys come from the ring
// pool; hand them back with Evaluator.Recycle once the ciphertext is dead.
func (s *PlainSum) Sum() (*Ciphertext, error) {
	if s.terms == 0 {
		return nil, fmt.Errorf("ckks: sum of no terms")
	}
	rq := s.ev.params.RingQ()
	out := &Ciphertext{C0: s.c0.reduce(rq), C1: s.c1.reduce(rq), Scale: s.scale, Level: s.level}
	s.c0, s.c1, s.terms = acc128{}, acc128{}, 0
	return out, nil
}

// Release returns any accumulators the sum still holds to the ring pool.
// The sum stays usable (and empty).
func (s *PlainSum) Release() {
	if s.terms == 0 {
		return
	}
	rq := s.ev.params.RingQ()
	s.c0.put(rq)
	s.c1.put(rq)
	s.c0, s.c1, s.terms = acc128{}, acc128{}, 0
}

// AddInPlace sets acc += ct (scales must match; acc's level must not exceed
// ct's). It is Add for a running sum the caller owns: no result ciphertext
// is allocated.
func (ev *Evaluator) AddInPlace(acc, ct *Ciphertext) error {
	if err := ev.checkScales(acc.Scale, ct.Scale); err != nil {
		return err
	}
	if ct.Level < acc.Level {
		return fmt.Errorf("ckks: cannot add a level-%d ciphertext into a level-%d sum", ct.Level, acc.Level)
	}
	rq := ev.params.RingQ()
	rq.Add(acc.C0, ct.C0, acc.C0)
	rq.Add(acc.C1, ct.C1, acc.C1)
	return nil
}

// Recycle returns a ciphertext's polys to the ring pool, where the next op
// that builds a result (every op listed on Evaluator) takes them. Only the
// owner of a ciphertext no one else references may recycle it — typically
// an intermediate the caller itself obtained from one of those ops — and
// neither ct nor any DropLevel view of it may be used afterwards. Recycling
// a view itself returns nothing. Recycling is optional: what is not recycled
// the GC collects.
func (ev *Evaluator) Recycle(ct *Ciphertext) {
	rq := ev.params.RingQ()
	rq.PutPoly(ct.C0)
	rq.PutPoly(ct.C1)
	ct.C0, ct.C1 = nil, nil
}
