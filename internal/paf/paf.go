// Package paf implements Polynomial Approximated Functions: the composite
// odd polynomials that replace sign(x) — and through it ReLU and MaxPooling —
// in FHE-friendly models (paper §2.2, Table 2, Appendix B/C).
//
// A PAF is a chain of odd polynomials applied in sequence. Following the
// paper's notation (Appendix C and Eq. 7), "f∘g" applies the f stages FIRST:
// f1∘g2 ≡ g2(f1(x)). ReLU and Max are reconstructed from the sign
// approximation p as
//
//	relu(x) = (x + x·p(x)) / 2
//	max(x,y) = ((x+y) + (x-y)·p(x-y)) / 2
//
// Every evaluation has a gradient-carrying variant so PAF coefficients can be
// fine-tuned by SGD/Adam (the heart of SMART-PAF's training techniques).
package paf

import (
	"fmt"
	"math"
	"math/bits"
)

// OddPoly is a polynomial with only odd-degree terms: Coeffs[k] multiplies
// x^(2k+1). Odd parity is what makes a polynomial a sign(x) candidate.
type OddPoly struct {
	Coeffs []float64
}

// NewOddPoly copies the coefficient slice into a fresh polynomial.
func NewOddPoly(coeffs []float64) *OddPoly {
	return &OddPoly{Coeffs: append([]float64(nil), coeffs...)}
}

// Degree returns the formal degree 2·len(Coeffs)-1.
func (p *OddPoly) Degree() int { return 2*len(p.Coeffs) - 1 }

// Eval computes p(x) by Horner's rule on the x² ladder.
func (p *OddPoly) Eval(x float64) float64 {
	x2 := x * x
	acc := 0.0
	for k := len(p.Coeffs) - 1; k >= 0; k-- {
		acc = acc*x2 + p.Coeffs[k]
	}
	return acc * x
}

// Deriv computes dp/dx = Σ (2k+1)·c_k·x^(2k).
func (p *OddPoly) Deriv(x float64) float64 {
	x2 := x * x
	acc := 0.0
	pw := 1.0
	for k := 0; k < len(p.Coeffs); k++ {
		acc += float64(2*k+1) * p.Coeffs[k] * pw
		pw *= x2
	}
	return acc
}

// GradCoeffs fills grad with ∂p(x)/∂c_k = x^(2k+1).
func (p *OddPoly) GradCoeffs(x float64, grad []float64) {
	pw := x
	for k := range p.Coeffs {
		grad[k] = pw
		pw *= x * x
	}
}

// Clone deep-copies the polynomial.
func (p *OddPoly) Clone() *OddPoly { return NewOddPoly(p.Coeffs) }

// Composite is a PAF: odd polynomial stages applied first-to-last to
// approximate sign(x).
type Composite struct {
	// Name is the canonical identifier, e.g. "f2_g3".
	Name string
	// Label is the paper's display label, e.g. "f2∘g3 (12-degree)".
	Label string
	// Stages are applied in order: Stages[len-1](...Stages[0](x)).
	Stages []*OddPoly
}

// Clone deep-copies the composite (coefficients included).
func (c *Composite) Clone() *Composite {
	out := &Composite{Name: c.Name, Label: c.Label, Stages: make([]*OddPoly, len(c.Stages))}
	for i, s := range c.Stages {
		out.Stages[i] = s.Clone()
	}
	return out
}

// Eval computes the sign approximation.
func (c *Composite) Eval(x float64) float64 {
	for _, s := range c.Stages {
		x = s.Eval(x)
	}
	return x
}

// Degree returns the sum of stage degrees. Note: the paper's Table 2 labels
// f1²∘g1² as "14-degree" while its four cubic stages sum to 12; we report
// the sum and keep the paper's label in Label.
func (c *Composite) Degree() int {
	total := 0
	for _, s := range c.Stages {
		total += s.Degree()
	}
	return total
}

// StageDepths returns ⌈log2(deg+1)⌉ per stage: the multiplicative depth each
// stage consumes under the exponentiation-by-squaring evaluation of
// Appendix C.
func (c *Composite) StageDepths() []int {
	out := make([]int, len(c.Stages))
	for i, s := range c.Stages {
		out[i] = DepthOfDegree(s.Degree())
	}
	return out
}

// Depth returns the total multiplicative depth of the sign approximation
// (the sum of stage depths; Table 2's "Multiplication Depth" row).
func (c *Composite) Depth() int {
	total := 0
	for _, d := range c.StageDepths() {
		total += d
	}
	return total
}

// DepthReLU is Depth plus the final x·p(x) product of the ReLU construction.
func (c *Composite) DepthReLU() int { return c.Depth() + 1 }

// DepthOfDegree returns ⌈log2(n+1)⌉, the depth of evaluating a degree-n
// polynomial with exponentiation by squaring (paper Appendix C).
func DepthOfDegree(n int) int {
	if n <= 0 {
		return 0
	}
	m := uint(n + 1)
	l := bits.Len(m)
	if m&(m-1) == 0 {
		return l - 1 // n+1 is an exact power of two
	}
	return l
}

// EvalWithGrad computes y = p(x), dy/dx, and the per-stage coefficient
// gradients dy/dc[stage][k]. Used by the PAF training layers.
func (c *Composite) EvalWithGrad(x float64) (y, dx float64, dc [][]float64) {
	nStages := len(c.Stages)
	// Forward pass, recording each stage input.
	inputs := make([]float64, nStages)
	v := x
	for i, s := range c.Stages {
		inputs[i] = v
		v = s.Eval(v)
	}
	y = v

	// Suffix products of stage derivatives: chain[i] = ∏_{t>i} p_t'(u_t).
	chain := make([]float64, nStages)
	prod := 1.0
	for i := nStages - 1; i >= 0; i-- {
		chain[i] = prod
		prod *= c.Stages[i].Deriv(inputs[i])
	}
	dx = prod

	dc = make([][]float64, nStages)
	for i, s := range c.Stages {
		dc[i] = make([]float64, len(s.Coeffs))
		s.GradCoeffs(inputs[i], dc[i])
		for k := range dc[i] {
			dc[i][k] *= chain[i]
		}
	}
	return y, dx, dc
}

// ReLU evaluates the PAF-approximated ReLU (x + x·p(x))/2.
func (c *Composite) ReLU(x float64) float64 {
	return (x + x*c.Eval(x)) / 2
}

// ReLUWithGrad returns relu value, d/dx and per-stage coefficient grads.
func (c *Composite) ReLUWithGrad(x float64) (y, dx float64, dc [][]float64) {
	p, dp, pdc := c.EvalWithGrad(x)
	y = (x + x*p) / 2
	dx = (1 + p + x*dp) / 2
	for i := range pdc {
		for k := range pdc[i] {
			pdc[i][k] *= x / 2
		}
	}
	return y, dx, pdc
}

// Max evaluates the PAF-approximated max ((x+y) + (x-y)·p(x-y))/2.
func (c *Composite) Max(x, y float64) float64 {
	d := x - y
	return ((x + y) + d*c.Eval(d)) / 2
}

// MaxWithGrad returns the approximated max along with ∂/∂x, ∂/∂y and the
// coefficient gradients.
func (c *Composite) MaxWithGrad(x, y float64) (m, dx, dy float64, dc [][]float64) {
	d := x - y
	p, dp, pdc := c.EvalWithGrad(d)
	m = ((x + y) + d*p) / 2
	common := (p + d*dp) / 2
	dx = 0.5 + common
	dy = 0.5 - common
	for i := range pdc {
		for k := range pdc[i] {
			pdc[i][k] *= d / 2
		}
	}
	return m, dx, dy, pdc
}

// SignError returns the maximum |p(x) - sign(x)| over |x| ∈ [eps, 1] sampled
// on a grid; a quality metric used by tests and Coefficient Tuning reports.
func (c *Composite) SignError(eps float64, grid int) float64 {
	var worst float64
	for i := 0; i <= grid; i++ {
		x := eps + (1-eps)*float64(i)/float64(grid)
		if d := math.Abs(c.Eval(x) - 1); d > worst {
			worst = d
		}
		if d := math.Abs(c.Eval(-x) + 1); d > worst {
			worst = d
		}
	}
	return worst
}

// OpCount tallies the homomorphic operations of the Appendix C evaluation
// strategy, printed by experiments' Table 2 and pinned to hepoly's plan.
type OpCount struct {
	CtMults    int // ciphertext × ciphertext multiplications (with relin)
	ConstMults int // ciphertext × scalar multiplications (with rescale)
	Adds       int
}

// opCountOdd counts operations to evaluate one odd stage of degree d:
// the even-power ladder x², x⁴, ..., plus per-term binary products.
func opCountOdd(nCoeffs int) OpCount {
	d := 2*nCoeffs - 1
	var oc OpCount
	if d >= 3 {
		// Even powers e_{2^j}, j = 0.. such that 2^(j+1) ≤ d-1.
		for pw := 2; pw <= d-1; pw <<= 1 {
			oc.CtMults++
		}
	}
	for k := 0; k < nCoeffs; k++ {
		deg := 2*k + 1
		oc.ConstMults++
		oc.CtMults += bits.OnesCount(uint((deg - 1) / 2))
		if k > 0 {
			oc.Adds++
		}
	}
	return oc
}

// Ops returns the operation counts for the sign approximation.
func (c *Composite) Ops() OpCount {
	var total OpCount
	for _, s := range c.Stages {
		oc := opCountOdd(len(s.Coeffs))
		total.CtMults += oc.CtMults
		total.ConstMults += oc.ConstMults
		total.Adds += oc.Adds
	}
	return total
}

// OpsReLU adds the ReLU construction on top of Ops: one ct-ct product
// (x · p̃(x)), one constant multiplication (x/2) and one addition.
func (c *Composite) OpsReLU() OpCount {
	oc := c.Ops()
	oc.CtMults++
	oc.ConstMults++
	oc.Adds++
	return oc
}

// String implements fmt.Stringer.
func (c *Composite) String() string {
	return fmt.Sprintf("%s (degree %d, depth %d)", c.Name, c.Degree(), c.Depth())
}
