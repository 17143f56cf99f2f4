package ckks

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
)

// PrecisionStats summarizes how faithfully a decrypted vector matches its
// reference, by the definition lattigo settled on in 6.1: a slot's precision
// is −log2 of its absolute error, and the summary is the minimum, median and
// mean of the per-slot precisions — not the log of the largest or of the mean
// error, which let a few bad slots hide behind many good ones or the other
// way round. An exact slot has infinite precision.
type PrecisionStats struct {
	MinPrec    float64 // worst slot, bits
	MedianPrec float64
	MeanPrec   float64
	Slots      int
}

// Precision compares want against got slot-wise.
func Precision(want, got []complex128) PrecisionStats {
	n := min(len(want), len(got))
	if n == 0 {
		return PrecisionStats{}
	}
	prec := make([]float64, n)
	sum := 0.0
	for i := range prec {
		prec[i] = -math.Log2(cmplx.Abs(want[i] - got[i]))
		sum += prec[i]
	}
	slices.Sort(prec)
	return PrecisionStats{MinPrec: prec[0], MedianPrec: prec[n/2], MeanPrec: sum / float64(n), Slots: n}
}

// PrecisionReals compares real vectors.
func PrecisionReals(want, got []float64) PrecisionStats {
	n := min(len(want), len(got))
	cw := make([]complex128, n)
	cg := make([]complex128, n)
	for i := range cw {
		cw[i] = complex(want[i], 0)
		cg[i] = complex(got[i], 0)
	}
	return Precision(cw, cg)
}

// String implements fmt.Stringer.
func (s PrecisionStats) String() string {
	return fmt.Sprintf("precision min %.1f / median %.1f / mean %.1f bits over %d slots",
		s.MinPrec, s.MedianPrec, s.MeanPrec, s.Slots)
}
