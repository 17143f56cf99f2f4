// Package parallel provides the one index-fan worker loop in the tree (Fan)
// and its first-error front-end (For). The ring substrate's limb and
// key-switch fans, ckks key generation and key expansion, and smartpaf's
// per-slot CT all run on it. The ring package keeps only its gate
// (ForEachWorker): the fan width, the cost threshold and the
// one-fan-in-flight rule that makes nested fans run serially.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a user-facing worker knob: n < 0 means all cores
// (runtime.GOMAXPROCS(0)), 0 and 1 mean serial, anything else is taken
// as-is.
func Workers(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n == 0 {
		return 1
	}
	return n
}

// Fan calls f(worker, i) for every i in [0, n) on min(workers, n) workers,
// each taking the next index from one shared counter until none is left.
// Worker 0 is the calling goroutine; the others are spawned, and Fan returns
// once every call has. Worker ids are in [0, min(workers, n)), so f can keep
// per-worker state; which worker runs which index is unspecified. workers ≤ 1
// runs every index in order on the caller's goroutine.
func Fan(n, workers int, f func(worker, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	loop := func(worker int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			f(worker, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			loop(w)
		}()
	}
	loop(0)
	wg.Wait()
}

// For runs f(i) for every i in [0, n) on Fan's workers and returns the first
// error. After an error no further f is called (calls in flight finish);
// serially that is right after the failing index.
func For(n, workers int, f func(i int) error) error {
	var (
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	Fan(n, workers, func(_, i int) {
		if failed.Load() {
			return
		}
		if err := f(i); err != nil {
			errOnce.Do(func() { firstErr = err })
			failed.Store(true)
		}
	})
	return firstErr
}
