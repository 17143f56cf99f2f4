// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -id tab2
//	experiments -id tab3 -full
//	experiments -all
//
// Fast mode (the default) shrinks datasets, model widths and ring degrees so
// the whole suite finishes on a laptop CPU; -full approaches the paper's
// budgets (hours). See EXPERIMENTS.md for paper-vs-measured notes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/efficientfhe/smartpaf/internal/experiments"
)

func main() {
	var (
		id   = flag.String("id", "", "experiment id to run (see -list)")
		all  = flag.Bool("all", false, "run every experiment")
		list = flag.Bool("list", false, "list experiment ids")
		full = flag.Bool("full", false, "full scale (paper budgets) instead of fast mode")
		seed = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	opt := experiments.Options{Fast: !*full, Seed: *seed, W: os.Stdout}
	ids := []string{*id}
	if *all {
		ids = experiments.IDs()
	} else if *id == "" {
		fmt.Fprintln(os.Stderr, "experiments: need -id, -all or -list")
		flag.Usage()
		os.Exit(2)
	}
	for _, exp := range ids {
		start := time.Now()
		if err := experiments.Run(exp, opt); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", exp, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "\n[%s completed in %s]\n", exp, time.Since(start).Round(time.Millisecond))
	}
}
