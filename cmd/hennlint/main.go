// Command hennlint runs the repository's custom invariant analyzers
// (internal/lint) over the given package patterns and exits non-zero on
// any finding. It is the `make lint` workhorse and a CI gate.
//
// Usage:
//
//	hennlint [packages...]           # defaults to ./...
//	hennlint -list                   # print the analyzer suite and exit
//	hennlint -json [packages...]     # machine-readable findings on stdout
//
// With -json, findings are emitted as a JSON array of objects with the
// fields file, line, col, analyzer and message (an empty tree prints
// "[]"). The exit status is unchanged: 1 when there are findings, 2 on
// load or analysis errors, 0 otherwise — so CI can both gate on the
// status and archive the structured report.
//
// -timing prints each analyzer's wall time to stderr after the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/efficientfhe/smartpaf/internal/lint"
)

// finding is the -json wire shape for one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	timing := flag.Bool("timing", false, "print per-analyzer wall time to stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hennlint [-list] [-json] [-timing] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hennlint:", err)
		os.Exit(2)
	}

	var diags []lint.Diagnostic
	if *timing {
		// One analyzer per Run call so each gets its own clock.
		for _, a := range lint.All() {
			start := time.Now()
			ds, err := lint.Run(pkgs, []*lint.Analyzer{a})
			if err != nil {
				fmt.Fprintln(os.Stderr, "hennlint:", err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "hennlint: %-13s %v\n", a.Name, time.Since(start).Round(time.Millisecond))
			diags = append(diags, ds...)
		}
	} else {
		diags, err = lint.Run(pkgs, lint.All())
		if err != nil {
			fmt.Fprintln(os.Stderr, "hennlint:", err)
			os.Exit(2)
		}
	}
	if *asJSON {
		findings := make([]finding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, finding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		out, err := json.MarshalIndent(findings, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "hennlint:", err)
			os.Exit(2)
		}
		fmt.Println(string(out))
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hennlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
