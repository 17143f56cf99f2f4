package ring

import (
	"runtime"
	"sync/atomic"

	"github.com/efficientfhe/smartpaf/internal/parallel"
)

// This file is the substrate's fan gate: independent jobs are fanned across
// up to Parallelism() workers by parallel.Fan, the tree's one worker loop,
// with a serial fallback when the work is too small to amortize the fan-out
// or when another fan-out is already in flight. Jobs come at two grains. The
// coarse one is a whole key switch: henn's linear layer fans its baby
// rotations and its giant blocks, each job worth milliseconds. The fine one
// is an RNS limb (NTT/INTT across limbs, pointwise limb arithmetic,
// key-switch decomposition and accumulation, mod-down base extension), each
// job worth tens of microseconds; it fans only when nothing coarser holds
// the gate.
//
// The loop relies on the Go scheduler as the underlying thread pool: workers
// are plain goroutines pulling job indices from an atomic counter, so nested
// calls and concurrent evaluators cannot deadlock on a fixed-size queue. The
// single in-flight gate keeps the total goroutine count bounded at
// Parallelism() even when many callers hit the substrate at once — in that
// regime the callers themselves already provide the concurrency, and a
// nested fan-out would only add scheduling overhead. The gate is the
// substrate's alone: key registration fans through parallel.Fan directly,
// so a client generating keys never waits on, or takes, the gate an
// inference holds.

// MinParallelWork is the minimum number of coefficient operations
// (jobs × per-job cost) below which a fan-out falls back to the serial
// path. It is sized by measurement, not by the cost of a goroutine: waking
// a second core and joining on it costs 50–80 µs on the 2-vCPU reference
// box, and a transform's coefficient costs about 12 ns at N = 1024 with
// lazy radix-4 butterflies, so a fan only wins once the serial job is worth
// well over 2 × 80 µs / 12 ns ≈ 13 000 coefficients (EXPERIMENTS.md).
// 1<<15 keeps a whole-polynomial NTT, Add or MulCoeffs at N = 1024 serial
// even with a 10-limb chain — fanning those lost to the hand-off — while
// the key switch's fans over gadget digits and over the limbs of Q·P, jobs
// several times larger at the same parameters, and any whole-polynomial
// transform from N = 4096 × 8 limbs up still take the second core.
const MinParallelWork = 1 << 15

// parallelism is the fan-out width; 0 means "use runtime.GOMAXPROCS(0)".
var parallelism atomic.Int64

// fanOutActive is 1 while a fan-out is in flight. Nested or concurrent
// ForEachWorker calls run serially instead of multiplying goroutines.
var fanOutActive atomic.Int32

// SetParallelism bounds the number of goroutines a single substrate
// operation fans limb work across. n ≤ 0 restores the default
// (runtime.GOMAXPROCS(0)); n == 1 forces the serial path everywhere.
// It is safe to call concurrently with running operations: the setting is
// read once per operation.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// Parallelism reports the current fan-out width.
func Parallelism() int {
	if n := parallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// ForEachWorker runs f(w, i) for every i in [0, jobs), fanning the calls
// across parallel.Fan's workers when jobs*costPerJob ≥ MinParallelWork and
// no other fan-out is in flight. f must treat distinct indices as independent:
// no ordering between indices is guaranteed and they may run on different
// goroutines. w is the executing worker's identity, so callers can keep
// per-worker state (the key-switch limb fan gives each worker its own
// accumulator scratch). setup, when non-nil, is called exactly once, before
// any f, with the number of workers that will run — 1 on the serial path —
// and worker indices passed to f are in [0, workers). Job-to-worker
// assignment is dynamic and unspecified; a job's result must not depend on
// which worker ran it. The parallel path holds the fan-out gate, so fans
// nested inside f run serially instead of double-fanning. ForEachWorker
// returns only after every f has returned.
func ForEachWorker(jobs, costPerJob int, setup func(workers int), f func(worker, i int)) {
	w := min(Parallelism(), jobs)
	if w <= 1 || jobs*costPerJob < MinParallelWork || !fanOutActive.CompareAndSwap(0, 1) {
		w = 1
	} else {
		defer fanOutActive.Store(0)
	}
	if setup != nil {
		setup(w)
	}
	parallel.Fan(jobs, w, f)
}

// forLimbs fans f over the limbs 0..level of a ring, costing each limb at
// the ring degree. This is the common entry point for limb-wise poly ops.
func (r *Ring) forLimbs(level int, f func(worker, i int)) {
	ForEachWorker(level+1, r.N, nil, f)
}
