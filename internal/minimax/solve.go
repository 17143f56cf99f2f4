// Package minimax provides the polynomial-fitting machinery SMART-PAF builds
// on: a Remez exchange algorithm producing minimax odd-polynomial
// approximations of sign(x) (the initialization used by Lee et al. 2021 and
// Cheon et al. 2020) and composite sign approximations of prescribed
// precision.
package minimax

import (
	"fmt"
	"math"
)

// SolveLinear solves A·x = b in place by Gaussian elimination with partial
// pivoting. A is row-major n×n; A and b are clobbered.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for i := range a {
		if len(a[i]) != n {
			return nil, fmt.Errorf("minimax: matrix row %d has %d entries, want %d", i, len(a[i]), n)
		}
	}
	if len(b) != n {
		return nil, fmt.Errorf("minimax: rhs has %d entries, want %d", len(b), n)
	}
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-300 {
			return nil, fmt.Errorf("minimax: singular system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate below.
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			a[r][col] = 0
			for c := col + 1; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}

// evalOdd evaluates Σ c[k]·x^(2k+1).
func evalOdd(coeffs []float64, x float64) float64 {
	x2 := x * x
	// Horner on the odd basis: x·(c0 + x²·(c1 + x²·(...))).
	acc := 0.0
	for k := len(coeffs) - 1; k >= 0; k-- {
		acc = acc*x2 + coeffs[k]
	}
	return acc * x
}
