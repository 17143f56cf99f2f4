package minimax

import (
	"fmt"
	"math"
)

// ApproxSignOdd computes the minimax odd polynomial of the given odd degree
// approximating sign(x) on [-b,-a] ∪ [a,b] via the Remez exchange algorithm.
// By odd symmetry this reduces to approximating the constant 1 on [a,b] with
// the basis {x, x³, ..., x^degree}. It returns the coefficients (odd basis)
// and the achieved minimax error.
func ApproxSignOdd(degree int, a, b float64) ([]float64, float64, error) {
	if degree < 1 || degree%2 == 0 {
		return nil, 0, fmt.Errorf("minimax: degree must be odd and ≥1, got %d", degree)
	}
	if !(0 < a && a < b) {
		return nil, 0, fmt.Errorf("minimax: need 0 < a < b, got [%g,%g]", a, b)
	}
	nc := (degree + 1) / 2 // number of odd coefficients
	m := nc + 1            // equioscillation points

	// Initial reference: Chebyshev nodes on [a,b].
	ref := make([]float64, m)
	for i := 0; i < m; i++ {
		theta := math.Pi * float64(i) / float64(m-1)
		ref[i] = (a+b)/2 + (b-a)/2*math.Cos(theta)
	}

	var coeffs []float64
	var lastE float64
	for iter := 0; iter < 60; iter++ {
		// Solve p(x_i) + (-1)^i E = 1 for the nc coefficients and E.
		mat := make([][]float64, m)
		rhs := make([]float64, m)
		for i := 0; i < m; i++ {
			row := make([]float64, m)
			x := ref[i]
			pw := x
			for k := 0; k < nc; k++ {
				row[k] = pw
				pw *= x * x
			}
			if i%2 == 0 {
				row[nc] = 1
			} else {
				row[nc] = -1
			}
			mat[i] = row
			rhs[i] = 1
		}
		sol, err := SolveLinear(mat, rhs)
		if err != nil {
			return nil, 0, err
		}
		coeffs = sol[:nc]
		e := math.Abs(sol[nc])

		// Exchange: locate the alternating extrema of the error on a grid.
		newRef, maxErr := alternatingExtrema(coeffs, a, b, m)
		if len(newRef) == m {
			ref = newRef
		}
		if maxErr-e < 1e-12*math.Max(1, maxErr) || math.Abs(maxErr-lastE) < 1e-14 {
			return coeffs, maxErr, nil
		}
		lastE = maxErr
	}
	_, maxErr := alternatingExtrema(coeffs, a, b, m)
	return coeffs, maxErr, nil
}

// alternatingExtrema samples err(x) = p(x)-1 on [a,b] and returns up to m
// sign-alternating local extrema (always including the global max error).
func alternatingExtrema(coeffs []float64, a, b float64, m int) ([]float64, float64) {
	const grid = 4000
	xs := make([]float64, grid+1)
	es := make([]float64, grid+1)
	var maxAbs float64
	for i := 0; i <= grid; i++ {
		x := a + (b-a)*float64(i)/grid
		xs[i] = x
		es[i] = evalOdd(coeffs, x) - 1
		if v := math.Abs(es[i]); v > maxAbs {
			maxAbs = v
		}
	}
	// Collect local extrema (including endpoints).
	type ext struct {
		x, e float64
	}
	var cands []ext
	cands = append(cands, ext{xs[0], es[0]})
	for i := 1; i < grid; i++ {
		if (es[i]-es[i-1])*(es[i+1]-es[i]) <= 0 {
			cands = append(cands, ext{xs[i], es[i]})
		}
	}
	cands = append(cands, ext{xs[grid], es[grid]})

	// Greedy alternating selection keeping the largest magnitudes.
	var sel []ext
	for _, c := range cands {
		if len(sel) == 0 {
			sel = append(sel, c)
			continue
		}
		last := &sel[len(sel)-1]
		if (c.e >= 0) == (last.e >= 0) {
			if math.Abs(c.e) > math.Abs(last.e) {
				*last = c
			}
		} else {
			sel = append(sel, c)
		}
	}
	// Trim to m points keeping the largest |e| run.
	for len(sel) > m {
		// Drop the smaller of the two endpoints.
		if math.Abs(sel[0].e) < math.Abs(sel[len(sel)-1].e) {
			sel = sel[1:]
		} else {
			sel = sel[:len(sel)-1]
		}
	}
	out := make([]float64, len(sel))
	for i, s := range sel {
		out[i] = s.x
	}
	return out, maxAbs
}

// CompositeSign builds a composite minimax sign approximation in the style
// of Lee et al. 2021: successive minimax stages, each refining the image
// interval of the previous one, so that the final output is within finalErr
// of sign(x) for all |x| ∈ [eps, 1]. stageDegrees lists the component
// degrees applied first-to-last. It returns the per-stage odd coefficients.
func CompositeSign(stageDegrees []int, eps float64) ([][]float64, float64, error) {
	if len(stageDegrees) == 0 {
		return nil, 0, fmt.Errorf("minimax: no stages")
	}
	stages := make([][]float64, len(stageDegrees))
	lo, hi := eps, 1.0
	var err float64
	for i, deg := range stageDegrees {
		c, e, rerr := ApproxSignOdd(deg, lo, hi)
		if rerr != nil {
			return nil, 0, rerr
		}
		stages[i] = c
		// The stage maps ±[lo,hi] into ±[1-e, 1+e].
		lo, hi = 1-e, 1+e
		err = e
	}
	return stages, err, nil
}
