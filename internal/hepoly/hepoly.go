// Package hepoly evaluates one operator on CKKS ciphertexts: the scaled ReLU
// of a PAF (a composite odd polynomial), the activation of the MLPs the
// encrypted stack serves. It uses the depth-optimal strategy of the paper's
// Appendix C:
// exponentiation by squaring over an even-power ladder with the scalar
// coefficient folded into the first multiplication of each term, so a
// degree-n stage consumes exactly ⌈log2(n+1)⌉ levels.
//
// The schedule is stated once: compile plans it for one input level and
// scale before any ciphertext operation, refusing a stage the level cannot
// pay for and solving each term's constant scale so that every term lands at
// the input's scale (all additions are between identically-scaled
// ciphertexts). One executor, run, performs the plan.
//
// Intermediates go back to the ring pool once they are dead
// (ckks.Evaluator.Recycle), on failure too. A ciphertext the caller passed
// in never does: the caller owns its inputs and the result.
package hepoly

import (
	"fmt"
	"math/bits"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/paf"
)

// Evaluator evaluates the one operator the encrypted stack serves, a
// composite PAF's (scaled) ReLU, on ciphertexts.
type Evaluator struct {
	ev *ckks.Evaluator
}

// NewEvaluator wraps a CKKS evaluator (which must hold a relinearization
// key).
func NewEvaluator(ev *ckks.Evaluator) *Evaluator {
	return &Evaluator{ev: ev}
}

// RequiredLevels returns the levels a deployed activation with this PAF
// consumes: the Static Scaling input normalisation (one constant multiply
// that scales the input into [-1,1]) plus the ReLU's DepthReLU.
func RequiredLevels(c *paf.Composite) int {
	return c.DepthReLU() + 1
}

// term is a stage's non-zero monomial coeff·x·x^(2k), one factor x^(2^(b+1))
// per set bit b of k; scale is the constant product's target, solved so that
// the chain of products lands at the stage's input scale.
type term struct {
	k            int
	coeff, scale float64
}

// stage is one odd polynomial: ladder squarings x², x⁴, …, x^(2^ladder),
// then its terms summed.
type stage struct {
	ladder int
	terms  []term
}

// plan is the Appendix C schedule of factor·(x + x·p(x)) for one composite p
// and one input level and scale.
type plan struct {
	name   string
	factor float64
	stages []stage
}

// compile states c's schedule for an input at (level, scale), with factor
// folded into the last stage's coefficients and applied to the linear term x.
// It fails if a stage, or the final x·p(x) product, has no level to pay for.
func compile(params *ckks.Parameters, c *paf.Composite, factor float64, level int, scale float64) (*plan, error) {
	q := params.Q()
	p := &plan{name: c.Name, factor: factor, stages: make([]stage, len(c.Stages))}
	for i, s := range c.Stages {
		deg := s.Degree()
		if need := paf.DepthOfDegree(deg); level < need {
			return nil, fmt.Errorf("hepoly: stage %d of %s: degree-%d stage needs %d levels, ciphertext has %d", i, c.Name, deg, need, level)
		}
		// x^(2^(b+1)), the ladder's b-th square, sits at level-1-b and at
		// scale sq[b+1], as MulRelinRescale leaves it.
		st := stage{ladder: bits.Len(uint((deg - 1) / 2)), terms: make([]term, 0, len(s.Coeffs))}
		sq := append(make([]float64, 0, st.ladder+1), scale)
		for b := 0; b < st.ladder; b++ {
			sq = append(sq, sq[b]*sq[b]/float64(q[level-b]))
		}
		out := level
		for k, coeff := range s.Coeffs {
			if coeff == 0 {
				continue
			}
			if i == len(c.Stages)-1 {
				coeff *= factor
			}
			l, mult := level-1, 1.0 // after the constant product; ∏ s_e/q_used
			for r := uint(k); r != 0; r &= r - 1 {
				b := bits.TrailingZeros(r)
				l = min(l, level-1-b)
				mult *= sq[b+1] / float64(q[l])
				l--
			}
			st.terms = append(st.terms, term{k: k, coeff: coeff, scale: scale / mult})
			out = min(out, l)
		}
		if len(st.terms) == 0 {
			return nil, fmt.Errorf("hepoly: stage %d of %s has no nonzero coefficients", i, c.Name)
		}
		p.stages[i] = st
		level = out
	}
	if level < 1 {
		return nil, fmt.Errorf("hepoly: %s leaves no level for the x·p(x) product", c.Name)
	}
	return p, nil
}

// run executes p on x: each stage in turn, then x·p(x) with factor·x added
// on the product's limbs.
func (he *Evaluator) run(p *plan, x *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	cur := x
	for i, st := range p.stages {
		next, err := he.stage(st, cur)
		if cur != x {
			he.ev.Recycle(cur)
		}
		if err != nil {
			return nil, fmt.Errorf("hepoly: stage %d of %s: %w", i, p.name, err)
		}
		cur = next
	}
	prod, err := he.ev.MulRelinRescale(x, cur) // factor·x·p(x)
	he.ev.Recycle(cur)
	if err != nil {
		return nil, err
	}
	l, err := he.ev.MulConstTargetScale(x, p.factor, prod.Scale)
	if err == nil {
		err = he.ev.AddInPlace(prod, l)
		he.ev.Recycle(l)
	}
	if err != nil {
		he.ev.Recycle(prod)
		return nil, err
	}
	return prod, nil
}

// stage evaluates one stage on ct: its ladder, then per term one constant
// product and one ciphertext product per set bit of k, summed at ct's scale
// on the limbs all terms share.
func (he *Evaluator) stage(st stage, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	ladder := make([]*ckks.Ciphertext, 0, st.ladder)
	defer func() {
		for _, e := range ladder {
			he.ev.Recycle(e)
		}
	}()
	for cur := ct; len(ladder) < st.ladder; {
		sq, err := he.ev.MulRelinRescale(cur, cur)
		if err != nil {
			return nil, fmt.Errorf("even ladder step %d: %w", len(ladder), err)
		}
		ladder, cur = append(ladder, sq), sq
	}
	var sum *ckks.Ciphertext
	for _, t := range st.terms {
		term, err := he.ev.MulConstTargetScale(ct, t.coeff, t.scale)
		for r := uint(t.k); err == nil && r != 0; r &= r - 1 {
			prev := term
			term, err = he.ev.MulRelinRescale(prev, ladder[bits.TrailingZeros(r)])
			he.ev.Recycle(prev)
		}
		if err == nil {
			// Pin the exactly-planned scale to suppress float bookkeeping dust.
			term.Scale = ct.Scale
			if sum == nil {
				sum = term
				continue
			}
			// Accumulate into whichever of the two sits lower: the sum keeps
			// only the limbs both have, and the other is superseded.
			if term.Level < sum.Level {
				sum, term = term, sum
			}
			err = he.ev.AddInPlace(sum, term)
			he.ev.Recycle(term)
		}
		if err != nil {
			if sum != nil {
				he.ev.Recycle(sum)
			}
			return nil, fmt.Errorf("term degree %d: %w", 2*t.k+1, err)
		}
	}
	return sum, nil
}

// ReLUScaled evaluates γ·relu(x) ≈ (γ·x + γ·x·p(x))/2 with the constant γ
// folded into the existing coefficient multiplications, so it costs no
// extra level: DepthReLU() levels. This is how Static Scaling's output
// rescaling (s·relu(x/s)) deploys for free.
func (he *Evaluator) ReLUScaled(c *paf.Composite, ct *ckks.Ciphertext, gamma float64) (*ckks.Ciphertext, error) {
	p, err := compile(he.ev.Params(), c, gamma/2, ct.Level, ct.Scale)
	if err != nil {
		return nil, err
	}
	return he.run(p, ct)
}
