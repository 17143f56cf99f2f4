// Package hepoly evaluates PAFs (composite odd polynomials) on CKKS
// ciphertexts using the depth-optimal strategy of the paper's Appendix C:
// exponentiation by squaring over an even-power ladder with the scalar
// coefficient folded into the first multiplication of each term, so a
// degree-n stage consumes exactly ⌈log2(n+1)⌉ levels.
//
// Scale management is exact: a per-term planner solves for the constant
// encoding scale that makes every term land at the caller's scale, so all
// additions are between identically-scaled ciphertexts.
//
// Intermediates go back to the ring pool once they are dead
// (ckks.Evaluator.Recycle). A ciphertext the caller passed in never does:
// the caller owns its inputs and the result.
package hepoly

import (
	"fmt"
	"math/bits"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/paf"
)

// Evaluator evaluates odd polynomials, composite PAFs, and the derived
// ReLU/Max operators on ciphertexts.
type Evaluator struct {
	ev *ckks.Evaluator
}

// NewEvaluator wraps a CKKS evaluator (which must hold a relinearization
// key).
func NewEvaluator(ev *ckks.Evaluator) *Evaluator {
	return &Evaluator{ev: ev}
}

// evenLadder computes x^2, x^4, ..., x^(2^count) with one squaring each.
func (he *Evaluator) evenLadder(ct *ckks.Ciphertext, count int) ([]*ckks.Ciphertext, error) {
	ladder := make([]*ckks.Ciphertext, count)
	cur := ct
	for i := 0; i < count; i++ {
		sq, err := he.ev.MulRelinRescale(cur, cur)
		if err != nil {
			return nil, fmt.Errorf("hepoly: even ladder step %d: %w", i, err)
		}
		ladder[i] = sq
		cur = sq
	}
	return ladder, nil
}

// ladderSize returns how many squarings the even-power ladder needs for an
// odd polynomial of the given degree: enough to cover (degree-1)/2 in binary.
func ladderSize(degree int) int {
	return bits.Len(uint((degree - 1) / 2))
}

// EvalOdd evaluates the odd polynomial p on ct. The result lands at the same
// scale as ct, ⌈log2(deg+1)⌉ levels below it.
func (he *Evaluator) EvalOdd(p *paf.OddPoly, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	deg := p.Degree()
	need := paf.DepthOfDegree(deg)
	if ct.Level < need {
		return nil, fmt.Errorf("hepoly: degree-%d stage needs %d levels, ciphertext has %d", deg, need, ct.Level)
	}
	ladder, err := he.evenLadder(ct, ladderSize(deg))
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, e := range ladder {
			he.ev.Recycle(e)
		}
	}()

	targetScale := ct.Scale
	q := he.ev.Params().Q()

	var sum *ckks.Ciphertext
	for k, c := range p.Coeffs {
		if c == 0 {
			continue
		}
		m := k // the term is x · x^(2k): bit b of k set means one factor ladder[b] = x^(2^(b+1))
		// Plan the chain to solve for the constant target scale.
		level := ct.Level - 1 // after the constant multiplication
		mult := 1.0           // ∏ s_e / ∏ q_used relative factor
		for bit := 0; (1 << bit) <= m; bit++ {
			if m&(1<<bit) == 0 {
				continue
			}
			e := ladder[bit]
			newLevel := min(level, e.Level) - 1
			mult *= e.Scale / float64(q[min(level, e.Level)])
			level = newLevel
		}
		constTarget := targetScale / mult

		term, err := he.ev.MulConstTargetScale(ct, c, constTarget)
		if err != nil {
			return nil, fmt.Errorf("hepoly: term degree %d: %w", 2*k+1, err)
		}
		for bit := 0; (1 << bit) <= m; bit++ {
			if m&(1<<bit) == 0 {
				continue
			}
			next, err := he.ev.MulRelinRescale(term, ladder[bit])
			he.ev.Recycle(term)
			if err != nil {
				return nil, fmt.Errorf("hepoly: term degree %d power 2^%d: %w", 2*k+1, bit+1, err)
			}
			term = next
		}
		// Pin the exactly-planned scale to suppress float bookkeeping dust.
		term.Scale = targetScale
		if sum == nil {
			sum = term
			continue
		}
		// Accumulate into whichever of the two sits lower: the sum keeps only
		// the limbs both have, and the other is superseded.
		if term.Level < sum.Level {
			sum, term = term, sum
		}
		err = he.ev.AddInPlace(sum, term)
		he.ev.Recycle(term)
		if err != nil {
			return nil, fmt.Errorf("hepoly: accumulating degree %d: %w", 2*k+1, err)
		}
	}
	if sum == nil {
		return nil, fmt.Errorf("hepoly: polynomial has no nonzero coefficients")
	}
	return sum, nil
}

// EvalComposite applies the stages of a composite PAF in order; the result
// approximates sign(message) at the input's scale, Depth() levels below.
func (he *Evaluator) EvalComposite(c *paf.Composite, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	cur := ct
	for i, stage := range c.Stages {
		next, err := he.EvalOdd(stage, cur)
		if cur != ct {
			he.ev.Recycle(cur)
		}
		if err != nil {
			return nil, fmt.Errorf("hepoly: stage %d of %s: %w", i, c.Name, err)
		}
		cur = next
	}
	return cur, nil
}

// scaledLastStage clones c with the final stage's coefficients multiplied by
// factor, folding a constant into the sign approximation for free.
func scaledLastStage(c *paf.Composite, factor float64) *paf.Composite {
	cc := c.Clone()
	last := cc.Stages[len(cc.Stages)-1]
	for i := range last.Coeffs {
		last.Coeffs[i] *= factor
	}
	return cc
}

// ReLU evaluates relu(x) ≈ (x + x·p(x))/2 on the ciphertext, consuming
// Depth()+1 levels.
func (he *Evaluator) ReLU(c *paf.Composite, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	return he.ReLUScaled(c, ct, 1)
}

// ReLUScaled evaluates γ·relu(x) ≈ (γ·x + γ·x·p(x))/2 with the constant γ
// folded into the existing coefficient multiplications, so it costs no
// extra level. This is how Static Scaling's output rescaling (s·relu(x/s))
// deploys for free.
func (he *Evaluator) ReLUScaled(c *paf.Composite, ct *ckks.Ciphertext, gamma float64) (*ckks.Ciphertext, error) {
	half, err := he.EvalComposite(scaledLastStage(c, gamma/2), ct) // γ·p(x)/2
	if err != nil {
		return nil, err
	}
	prod, err := he.ev.MulRelinRescale(ct, half) // γ·x·p(x)/2
	he.ev.Recycle(half)
	if err != nil {
		return nil, err
	}
	return he.addLinearTerm(prod, ct, gamma/2)
}

// addLinearTerm folds the linear term into prod: prod += factor·x, evaluated one
// level below x and added on prod's limbs. prod is the caller's to keep on
// success and is recycled on failure.
func (he *Evaluator) addLinearTerm(prod, x *ckks.Ciphertext, factor float64) (*ckks.Ciphertext, error) {
	xh, err := he.ev.MulConstTargetScale(x, factor, prod.Scale)
	if err == nil {
		err = he.ev.AddInPlace(prod, xh)
		he.ev.Recycle(xh)
	}
	if err != nil {
		he.ev.Recycle(prod)
		return nil, err
	}
	return prod, nil
}

// Max evaluates max(a,b) ≈ ((a+b) + (a-b)·p(a-b))/2.
func (he *Evaluator) Max(c *paf.Composite, a, b *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	d, err := he.ev.Sub(a, b)
	if err != nil {
		return nil, err
	}
	defer he.ev.Recycle(d)
	half, err := he.EvalComposite(scaledLastStage(c, 0.5), d)
	if err != nil {
		return nil, err
	}
	prod, err := he.ev.MulRelinRescale(d, half)
	he.ev.Recycle(half)
	if err != nil {
		return nil, err
	}
	sum, err := he.ev.Add(a, b)
	if err != nil {
		he.ev.Recycle(prod)
		return nil, err
	}
	out, err := he.addLinearTerm(prod, sum, 0.5)
	he.ev.Recycle(sum)
	return out, err
}
