// Command hennbench is the repo's one benchmark: it starts the real
// server.Server in-process on a loopback listener, drives it through the real
// server.Client from closed-loop clients in the same process, checks every
// decrypted answer against MLP.InferPlain and prints the metrics declared in
// BENCHMARK.json. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// benchLogN is the ring degree every workload is defined at.
const benchLogN = 10

// watchdogLimit bounds one workload's wall time; the driver allows 180 s.
const watchdogLimit = 150 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program; its return value is the process's single exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hennbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name       = fs.String("workload", "", "workload to run; empty runs all four in sequence")
		seed       = fs.Int64("seed", 1, "seed for model weights, request inputs and key seeds")
		secs       = fs.Float64("seconds", runSeconds, "length of the measured window")
		trace      = fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced and layer passes, per-layer metrics")
		logN       = fs.Int("logn", benchLogN, "ring degree exponent (insecure demo size)")
		warmup     = fs.Float64("warmup", 2, "seconds of discarded warm-up traffic")
		setups     = fs.Int("setups", 5, "set-ups per untraced run; setup_s is their median")
		outDir     = fs.String("outdir", "bench/out", "directory for trace_<workload>.json")
		appendTo   = fs.String("append", "", "append this run's result to a JSON run set (see -compare)")
		compare    = fs.Bool("compare", false, "compare two run sets: hennbench -compare a.json b.json")
		doManifest = fs.Bool("manifest", false, "print BENCHMARK.json and exit")
		list       = fs.Bool("list", false, "print every per-layer metric with the end-to-end metric and workload it should move")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *doManifest:
		doc, err := manifest()
		if err != nil {
			fmt.Fprintln(stderr, "hennbench:", err)
			return 1
		}
		_, _ = stdout.Write(doc)
		return 0
	case *list:
		for _, d := range perLayer {
			fmt.Fprintf(stdout, "%-32s %-6s %s\n", d.name, d.unit, d.moves)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: hennbench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "hennbench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}
	cfg := config{seed: *seed, logN: *logN, seconds: *secs, warmup: *warmup, setups: max(*setups, 1), outDir: *outDir}
	for _, w := range todo {
		res, err := runGuarded(w, cfg, *trace != 0, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "hennbench: %s: %v\n", w.name, err)
			return 1
		}
		if *appendTo != "" {
			if err := appendRun(*appendTo, runRecord{Workload: w.name, Seed: *seed, Trace: *trace, Result: *res}); err != nil {
				fmt.Fprintln(stderr, "hennbench:", err)
				return 1
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "hennbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

// runGuarded runs one workload under the wall-clock watchdog: a pass that
// outlives the limit is cancelled, and if it still does not return the run
// fails rather than hangs.
func runGuarded(w workload, cfg config, traced bool, stderr io.Writer) (*result, error) {
	pass, defs := runEndToEnd, endToEnd
	if traced {
		pass, defs = runTraced, perLayer
	}
	ctx, cancel := context.WithTimeout(context.Background(), watchdogLimit)
	defer cancel()
	type done struct {
		out *outcome
		err error
	}
	// Buffered: a pass that returns after the watchdog gave up must not block.
	ch := make(chan done, 1)
	go func() {
		out, err := pass(ctx, w, cfg)
		ch <- done{out, err}
	}()
	var d done
	select {
	case d = <-ch:
	case <-ctx.Done():
		// Cancelling the context aborts requests in flight; give the pass a
		// moment to tear down before declaring it hung.
		select {
		case d = <-ch:
			if d.err == nil {
				d.err = fmt.Errorf("watchdog: exceeded %s", watchdogLimit)
			}
		case <-time.After(15 * time.Second):
			d.err = fmt.Errorf("watchdog: still running %s after the %s limit", 15*time.Second, watchdogLimit)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.out.firstErr != nil {
		fmt.Fprintf(stderr, "hennbench: %s: first failure: %v\n", w.name, d.out.firstErr)
	}
	metrics, err := report(defs, d.out.values)
	if err != nil {
		return nil, err
	}
	return &result{Correct: d.out.failed == 0, Attempted: d.out.attempted, Failed: d.out.failed, Metrics: metrics}, nil
}
