// Pareto: sweep every PAF form, measure encrypted ReLU latency on each
// form's own CKKS context (the path Table 4 and Fig. 1 use, in fast mode),
// and print the latency/accuracy trade-off table that underlies Fig. 1 —
// without any model training (accuracy is the PAF's standalone operator
// fidelity on a reference distribution).
package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"github.com/efficientfhe/smartpaf/internal/experiments"
	"github.com/efficientfhe/smartpaf/internal/paf"
)

func main() {
	const iters = 2
	fmt.Println("form       degree  depth  ring  measured ReLU latency  relu fidelity (mean err, |x|<=1)")
	latency := map[string]time.Duration{}
	for _, form := range paf.AllFormsWithBaseline {
		c := paf.MustNew(form)
		d, lit, err := experiments.MeasureReLULatency(form, true, iters)
		check(err)
		latency[form] = d
		// Mean absolute ReLU error over a uniform grid.
		var sum float64
		const grid = 1000
		for i := 0; i <= grid; i++ {
			x := -1 + 2*float64(i)/grid
			sum += math.Abs(c.ReLU(x) - math.Max(0, x))
		}
		fmt.Printf("%-10s %-7d %-6d 2^%-3d %-22s %.4f\n",
			form, c.Degree(), c.Depth(), lit.LogN, d.Round(time.Microsecond), sum/(grid+1))
	}
	fmt.Printf("\nspeedup of each form vs the 27-degree baseline (measured):\n")
	for _, form := range paf.AllForms {
		fmt.Printf("  %-10s %.2fx\n", form, float64(latency[paf.FormAlpha10])/float64(latency[form]))
	}
	fmt.Println("\n(fast mode: ring degrees uniformly reduced by 2^4; speedup ratios preserve the full-scale shape)")
	fmt.Println("Run `go run ./cmd/experiments -id fig1` for the full measured Pareto")
	fmt.Println("frontier including trained model accuracies.")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pareto:", err)
		os.Exit(1)
	}
}
