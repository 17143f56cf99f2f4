package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// config is what a run is asked to do.
type config struct {
	seed    int64
	logN    int
	seconds float64
	warmup  float64
	// setups is how many times the end-to-end pass builds the stack; the
	// last one is kept and measured, setup_s is the median of all.
	setups int
	// outDir receives trace_<workload>.json; empty disables the file.
	outDir string
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// outcome is one finished pass: what it counted and the metrics it measured.
type outcome struct {
	attempted, failed int
	firstErr          error
	values            map[string]float64
}

// runEndToEnd is the untraced pass: repeated set-up, warm-up, then one
// measured window from which every end-to-end metric comes.
func runEndToEnd(ctx context.Context, w workload, cfg config) (*outcome, error) {
	baseline := runtime.NumGoroutine()
	in, err := generate(w, cfg.seed, cfg.logN)
	if err != nil {
		return nil, err
	}
	var (
		st       *stack
		setupS   []float64
		regBytes []int64
	)
	// tearDown also collects the stack's registration sizes: every
	// registration of the run uploads the same bytes, whichever stack saw it.
	tearDown := func() error {
		sizes, _ := st.tr.registrations()
		regBytes = append(regBytes, sizes...)
		return st.tearDown()
	}
	for r := 0; r < cfg.setups; r++ {
		if st != nil {
			if err := tearDown(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", r, err)
			}
		}
		start := time.Now()
		if st, err = setUp(ctx, w, in); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	warm := window(ctx, w, in, st, seconds(cfg.warmup), plainInfer)
	validity := servedValidity(ctx, w, cfg.logN, st)
	before := readUsage()
	t := window(ctx, w, in, st, seconds(cfg.seconds), plainInfer)
	after := readUsage()

	if err := tearDown(); err != nil {
		return nil, err
	}
	if err := waitGoroutines(baseline); err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %w", warm.failed, warm.attempted, warm.firstErr)
	}
	if validity != nil {
		return nil, validity
	}
	verified := t.attempted - t.failed
	if len(t.latMs) == 0 {
		return nil, fmt.Errorf("no verified inference in the window (%d attempted): %v", t.attempted, t.firstErr)
	}
	registerMB := make([]float64, len(regBytes))
	for i, b := range regBytes {
		registerMB[i] = float64(b) / 1e6
	}
	n := float64(verified)
	return &outcome{
		attempted: t.attempted,
		failed:    t.failed,
		firstErr:  t.firstErr,
		values: map[string]float64{
			"setup_s":            median(setupS),
			"infer_p50_ms":       median(t.latMs),
			"throughput_rps":     t.rate,
			"register_mb":        median(registerMB),
			"precision_bits":     median(t.bits),
			"alloc_mb_per_infer": float64(after.allocBytes-before.allocBytes) / 1e6 / n,
			"cpu_s_per_infer":    (after.cpuS - before.cpuS) / n,
		},
	}, nil
}

// servedValidity checks the workload's validity share on the units the
// warm-up ran, read from the server's own request traces.
func servedValidity(ctx context.Context, w workload, logN int, st *stack) error {
	snaps, err := st.client.Traces(ctx)
	if err != nil {
		return err
	}
	var rotation, pafShare []float64
	for _, snap := range snaps {
		for _, sp := range snap.Spans {
			if sp.Name == "unit" && sp.DurUs > 0 {
				r, p := stageShares(snap.Stages, float64(sp.DurUs))
				rotation, pafShare = append(rotation, r), append(pafShare, p)
			}
		}
	}
	if len(rotation) == 0 {
		return fmt.Errorf("%s: the warm-up left no unit trace to check the workload's validity on", w.name)
	}
	return checkValidity(w, logN, median(rotation), median(pafShare))
}
