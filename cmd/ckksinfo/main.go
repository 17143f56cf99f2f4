// Command ckksinfo inspects the CKKS parameter literals ckks.ChainLiteral
// selects: the demo model's serving literal (what hennserve serves with no
// -logn) and each PAF form's ReLU-plus-scaling literal (Table 4). It prints
// prime chains, total modulus bits including every special prime against the
// ring's 128-bit bound, the key-switching gadget (special primes α, digits
// per level, wire bytes per switching key), slot counts, and the depth
// requirements of every PAF form in Table 2. It exits 1 if a selected literal
// exceeds its ring's bound.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/hepoly"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/registry"
)

func main() {
	showPrimes := flag.Bool("primes", false, "print the concrete prime chains")
	flag.Parse()

	demo, err := registry.DemoModel(1, 0)
	check("demo model", err)
	type set struct {
		name string
		lit  ckks.ParametersLiteral
	}
	sets := []set{{"serving", demo.Params}}
	for _, form := range paf.AllFormsWithBaseline {
		lit, err := ckks.ChainLiteral(0, hepoly.RequiredLevels(paf.MustNew(form)), 0)
		check(form, err)
		sets = append(sets, set{form, lit})
	}
	// logQP counts every special prime: a larger α buys fewer digits and
	// smaller keys with modulus bits the ring's bound has to cover.
	fmt.Println("CKKS parameter sets")
	fmt.Println("set         N      slots   levels  logQP   bound  128-bit  scale  alpha  wire KB  digits at level 0..L")
	over := 0
	for _, p := range sets {
		params, err := ckks.NewParameters(p.lit)
		check(p.name, err)
		compliant := "yes"
		if !params.Compliant() {
			compliant, over = "NO", over+1
		}
		top := params.MaxLevel()
		digits := make([]string, top+1)
		for l := range digits {
			digits[l] = strconv.Itoa(params.Digits(l))
		}
		fmt.Printf("%-10s  %-6d %-7d %-7d %-7.1f %-6d %-8s 2^%-4d %-6d %-8.0f %s\n",
			p.name, params.N(), params.Slots(), top, params.TotalLogQP(), ckks.MaxLogQP(params.LogN()), compliant,
			p.lit.LogScale, len(params.P()), float64(params.KeyWireSize())/1e3, strings.Join(digits, " "))
		if *showPrimes {
			fmt.Printf("  Q = %v\n  P = %v\n", params.Q(), params.P())
		}
	}
	fmt.Printf("serving = registry.ParamsForMLP(%s, 0), the literal hennserve prescribes by default\n", demo.Name)

	fmt.Println("\nPer-PAF ReLU requirements")
	fmt.Println("form        degree  depth  ReLU levels (+scaling)")
	for _, form := range paf.AllFormsWithBaseline {
		c := paf.MustNew(form)
		fmt.Printf("%-11s %-7d %-6d %d\n", form, c.Degree(), c.Depth(), hepoly.RequiredLevels(c))
	}
	if over > 0 {
		fmt.Fprintf(os.Stderr, "ckksinfo: %d selected literal(s) exceed their ring's 128-bit bound\n", over)
		os.Exit(1)
	}
}

func check(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ckksinfo: %s: %v\n", what, err)
		os.Exit(1)
	}
}
