// Pareto: sweep every PAF form, estimate encrypted ReLU latency with the
// calibrated cost model, and print the latency/accuracy trade-off table that
// underlies Fig. 1 — without any model training (accuracy is the PAF's
// standalone operator fidelity on a reference distribution).
package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/hepoly"
	"github.com/efficientfhe/smartpaf/internal/paf"
)

func main() {
	// Calibrate the analytic cost model on a small real context once.
	lit := ckks.ParametersLiteral{LogN: 11, LogQ: []int{50, 40, 40}, LogP: []int{55}, LogScale: 40}
	params, err := ckks.NewParameters(lit)
	check(err)
	kg := ckks.NewKeyGenerator(params, 3)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	eval := ckks.NewEvaluator(params, rlk)
	cm, err := hepoly.Calibrate(eval, ckks.NewEncoder(params), ckks.NewEncryptor(params, pk, 4), 4)
	check(err)
	fmt.Printf("calibrated per-op costs (N=%d): ct-mult %s, const-mult %s, add %s\n\n",
		params.N(), cm.CtMult.Round(time.Microsecond), cm.ConstMult.Round(time.Microsecond), cm.Add.Round(time.Microsecond))

	fmt.Println("form       degree  depth  est. ReLU latency  level-weighted (L=12)  relu fidelity (mean err, |x|<=1)")
	var baseline time.Duration
	for _, form := range paf.AllFormsWithBaseline {
		c := paf.MustNew(form)
		flat := cm.EstimateReLU(c)
		lw := cm.EstimateReLUAtLevel(c, 12)
		if form == paf.FormAlpha10 {
			baseline = lw
		}
		// Mean absolute ReLU error over a uniform grid.
		var sum float64
		const grid = 1000
		for i := 0; i <= grid; i++ {
			x := -1 + 2*float64(i)/grid
			sum += math.Abs(c.ReLU(x) - math.Max(0, x))
		}
		fmt.Printf("%-10s %-7d %-6d %-18s %-22s %.4f\n",
			form, c.Degree(), c.Depth(),
			flat.Round(time.Microsecond), lw.Round(time.Microsecond), sum/(grid+1))
	}
	fmt.Printf("\nspeedup of each form vs the 27-degree baseline (level-weighted):\n")
	for _, form := range paf.AllForms {
		lw := cm.EstimateReLUAtLevel(paf.MustNew(form), 12)
		fmt.Printf("  %-10s %.2fx\n", form, float64(baseline)/float64(lw))
	}
	fmt.Println("\nRun `go run ./cmd/experiments -id fig1` for the full measured Pareto")
	fmt.Println("frontier including trained model accuracies.")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pareto:", err)
		os.Exit(1)
	}
}
