// Quickstart: approximate ReLU with a low-degree PAF, tune its coefficients
// to an input distribution, and compare the approximation error before and
// after — the essence of SMART-PAF in ~60 lines.
package main

import (
	"fmt"
	"math"

	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/smartpaf"
)

func main() {
	// 1. Pick a PAF form from Table 2. f1∘g2 is the cheapest (depth 5);
	//    the 27-degree α=10 is the accurate-but-slow prior-work baseline.
	cheap := paf.MustNew(paf.FormF1G2)
	baseline := paf.MustNew(paf.FormAlpha10)
	fmt.Printf("cheap PAF:    %s\n", cheap)
	fmt.Printf("baseline PAF: %s\n", baseline)
	fmt.Printf("ReLU depth: %d vs %d -> every ReLU costs ~%.1fx fewer levels\n\n",
		cheap.DepthReLU(), baseline.DepthReLU(),
		float64(baseline.DepthReLU())/float64(cheap.DepthReLU()))

	// 2. Model an input distribution: activations concentrated around ±0.25
	//    (a typical post-batchnorm shape after max-normalization).
	prof := &smartpaf.Profile{Bins: make([]float64, 64), Max: 1}
	for i := range prof.Bins {
		x := prof.BinCenter(i)
		prof.Bins[i] = math.Exp(-(x*x)/(2*0.25*0.25)) + 0.002
	}

	// 3. Coefficient Tuning: refit the cheap PAF to that distribution.
	tuned := smartpaf.CoefficientTuning(cheap, prof)

	// 4. Compare weighted ReLU error (the quantity CT minimizes).
	before := smartpaf.WeightedReLUError(cheap, prof)
	after := smartpaf.WeightedReLUError(tuned, prof)
	ref := smartpaf.WeightedReLUError(baseline, prof)
	fmt.Printf("weighted ReLU error over the profiled distribution:\n")
	fmt.Printf("  f1∘g2 untuned:  %.6f\n", before)
	fmt.Printf("  f1∘g2 post-CT:  %.6f  (%.1fx better)\n", after, before/after)
	fmt.Printf("  27-degree:      %.6f\n\n", ref)

	// 5. Spot-check the actual curves.
	fmt.Println("      x     relu(x)   f1∘g2     post-CT   27-degree")
	for _, x := range []float64{-0.8, -0.4, -0.1, 0.1, 0.25, 0.5, 0.9} {
		fmt.Printf("  %+.2f   %+.4f   %+.4f   %+.4f   %+.4f\n",
			x, math.Max(0, x), cheap.ReLU(x), tuned.ReLU(x), baseline.ReLU(x))
	}
}
