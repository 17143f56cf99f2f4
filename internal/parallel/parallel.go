// Package parallel provides the small index-fan worker loop shared by the
// batch-parallel stages above the ring substrate (henn batch inference,
// smartpaf per-slot CT, the experiments latency harness). The ring package
// keeps its own fan-out (ForEachWorker) because it has substrate-specific
// threshold and nesting rules; everything else uses this.
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

// For runs f(i) for every i in [0, n) across up to workers goroutines and
// returns the first error. After an error no further indices are scheduled
// (in-flight calls finish). workers ≤ 1 runs serially on the caller's
// goroutine, stopping at the first error.
func For(n, workers int, f func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := f(i); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
