// Command ckksinfo inspects the CKKS parameter presets, the serving literal
// registry.ParamsForMLP gives the demo model, and the per-PAF minimal
// parameter sets used by the latency evaluation: prime chains, total modulus
// bits including every special prime, the key-switching gadget (special
// primes α, digits per level, wire bytes per switching key), slot counts, and the
// depth requirements of every PAF form in Table 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/experiments"
	"github.com/efficientfhe/smartpaf/internal/hepoly"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/registry"
)

// demoLogN is hennserve's default ring degree for the demo model.
const demoLogN = 11

func main() {
	showPrimes := flag.Bool("primes", false, "print the concrete prime chains")
	flag.Parse()

	demo, err := registry.DemoModel(1, demoLogN)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ckksinfo: demo model: %v\n", err)
		os.Exit(1)
	}
	sets := []struct {
		name string
		lit  ckks.ParametersLiteral
	}{
		{"PN11", ckks.PN11},
		{"PN12", ckks.PN12},
		{"PN13", ckks.PN13},
		{"PN14", ckks.PN14},
		{"PN15Paper", ckks.PN15Paper},
		{"serving", demo.Params},
	}
	// logQP counts every special prime: a larger α buys fewer digits and
	// smaller keys with modulus bits a security budget has to cover.
	fmt.Println("CKKS parameter sets")
	fmt.Println("set         N      slots   levels  logQP   scale  alpha  wire KB  digits at level 0..L")
	for _, p := range sets {
		params, err := ckks.NewParameters(p.lit)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ckksinfo: %s: %v\n", p.name, err)
			os.Exit(1)
		}
		top := params.MaxLevel()
		digits := make([]string, top+1)
		for l := range digits {
			digits[l] = strconv.Itoa(params.Digits(l))
		}
		fmt.Printf("%-10s  %-6d %-7d %-7d %-7.1f 2^%-4d %-6d %-8.0f %s\n",
			p.name, params.N(), params.Slots(), top, params.TotalLogQP(), p.lit.LogScale,
			len(params.P()), float64(params.KeyWireSize())/1e3, strings.Join(digits, " "))
		if *showPrimes {
			fmt.Printf("  Q = %v\n  P = %v\n", params.Q(), params.P())
		}
	}

	fmt.Printf("serving = registry.ParamsForMLP(%s, LogN %d), the literal hennserve prescribes by default\n", demo.Name, demoLogN)

	fmt.Println("\nPer-PAF ReLU requirements and minimal standard-compliant parameters")
	fmt.Println("form        degree  depth  ReLU levels (+scaling)  minimal ring")
	for _, form := range paf.AllFormsWithBaseline {
		c := paf.MustNew(form)
		lit, err := experiments.ParamsForPAF(c, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ckksinfo: %s: %v\n", form, err)
			os.Exit(1)
		}
		fmt.Printf("%-11s %-7d %-6d %-23d 2^%d\n",
			form, c.Degree(), c.Depth(), hepoly.RequiredLevels(c, true), lit.LogN)
	}
}
