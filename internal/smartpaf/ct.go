package smartpaf

import (
	"math"

	"github.com/efficientfhe/smartpaf/internal/paf"
)

// Coefficient Tuning's optimizer: Adam iterations on the weighted objective,
// its learning rate, and the minimum weight per bin, which keeps the tails
// from collapsing.
const (
	ctIterations = 400
	ctLR         = 0.02
	ctFloorMass  = 1e-3
)

// CoefficientTuning (paper §4.2, Fig. 3) refines a PAF's stage coefficients
// so the *operator it reconstructs* is most accurate where the profiled
// input distribution has mass. It minimizes the weighted ReLU error
//
//	J(c) = Σ_b w_b · (relu_p(x_b) - max(0, x_b))²
//
// over the histogram bin centers x_b with Adam, starting from the
// traditional-regression initialization already inside c. Fitting the ReLU
// rather than sign directly is important: near zero the sign discontinuity
// is unfittable but contributes nothing to the operator error (the
// construction multiplies by x/2), so a sign-weighted fit would waste
// capacity exactly where it cannot help. The tuned composite is returned as
// a new value; the input is unchanged.
func CoefficientTuning(c *paf.Composite, prof *Profile) *paf.Composite {
	tuned := c.Clone()
	weights := prof.Weights()
	// Floor the weights so regions with zero observed mass still anchor the
	// polynomial (prevents wild extrapolation between bins).
	for i := range weights {
		if weights[i] < ctFloorMass {
			weights[i] = ctFloorMass
		}
	}

	// Per-stage Adam state.
	mState := make([][]float64, len(tuned.Stages))
	vState := make([][]float64, len(tuned.Stages))
	for i, s := range tuned.Stages {
		mState[i] = make([]float64, len(s.Coeffs))
		vState[i] = make([]float64, len(s.Coeffs))
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8

	grad := make([][]float64, len(tuned.Stages))
	for i, s := range tuned.Stages {
		grad[i] = make([]float64, len(s.Coeffs))
	}

	before := fineGridReLUError(tuned, prof)

	for t := 1; t <= ctIterations; t++ {
		for i := range grad {
			clear(grad[i])
		}
		for b, w := range weights {
			if w == 0 {
				continue
			}
			x := prof.BinCenter(b)
			target := 0.0
			if x > 0 {
				target = x
			}
			y, _, dc := tuned.ReLUWithGrad(x)
			diff := 2 * w * (y - target)
			for si := range dc {
				for k, g := range dc[si] {
					grad[si][k] += diff * g
				}
			}
		}
		bc1 := 1 - math.Pow(beta1, float64(t))
		bc2 := 1 - math.Pow(beta2, float64(t))
		for si, s := range tuned.Stages {
			for k := range s.Coeffs {
				g := grad[si][k]
				mState[si][k] = beta1*mState[si][k] + (1-beta1)*g
				vState[si][k] = beta2*vState[si][k] + (1-beta2)*g*g
				mh := mState[si][k] / bc1
				vh := vState[si][k] / bc2
				s.Coeffs[k] -= ctLR * mh / (math.Sqrt(vh) + eps)
			}
		}
	}
	// Accept-if-better guard: a very high-degree composite can overfit the
	// histogram bin centers while oscillating between them. Validate on a 4×
	// finer grid (weights interpolated); if tuning degraded it, keep the
	// original coefficients.
	if fineGridReLUError(tuned, prof) > before {
		return c.Clone()
	}
	return tuned
}

// fineGridReLUError evaluates the CT objective on a grid 4× denser than the
// histogram, interpolating bin weights, to detect between-bin oscillation.
func fineGridReLUError(c *paf.Composite, prof *Profile) float64 {
	weights := prof.Weights()
	bins := len(weights)
	fine := bins * 4
	var j float64
	for i := 0; i < fine; i++ {
		x := -1 + (float64(i)+0.5)*2/float64(fine)
		// Nearest-bin weight (floored like the optimizer's view).
		bin := int((x + 1) / 2 * float64(bins))
		if bin >= bins {
			bin = bins - 1
		}
		w := weights[bin]
		if w == 0 {
			w = ctFloorMass
		}
		target := 0.0
		if x > 0 {
			target = x
		}
		d := c.ReLU(x) - target
		j += w * d * d
	}
	return j / 4 // normalize to the histogram-grid magnitude
}

// WeightedReLUError evaluates Σ w_b (relu_p(x_b) - max(0,x_b))², the CT
// objective, for reporting.
func WeightedReLUError(c *paf.Composite, prof *Profile) float64 {
	var j float64
	weights := prof.Weights()
	for b, w := range weights {
		if w == 0 {
			continue
		}
		x := prof.BinCenter(b)
		target := 0.0
		if x > 0 {
			target = x
		}
		d := c.ReLU(x) - target
		j += w * d * d
	}
	return j
}
