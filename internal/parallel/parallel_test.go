package parallel

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(-1); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-1)=%d want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	for in, want := range map[int]int{0: 1, 1: 1, 2: 2, 7: 7} {
		if got := Workers(in); got != want {
			t.Fatalf("Workers(%d)=%d want %d", in, got, want)
		}
	}
}

// goid returns the calling goroutine's id, read off its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// loops are the two entry points over the one worker loop, in For's shape.
// The Fan row checks, on every call, that the worker id is in [0, workers)
// and that worker 0, and only worker 0, runs on the caller's goroutine.
func loops(t *testing.T) map[string]func(n, workers int, f func(i int) error) error {
	return map[string]func(n, workers int, f func(i int) error) error{
		"For": For,
		"Fan": func(n, workers int, f func(i int) error) error {
			caller := goid()
			var first atomic.Pointer[error]
			Fan(n, workers, func(w, i int) {
				if w < 0 || w >= max(workers, 1) {
					t.Errorf("workers=%d: index %d ran on worker %d", workers, i, w)
				}
				if onCaller := goid() == caller; onCaller != (w == 0) {
					t.Errorf("workers=%d: worker %d ran index %d on the caller's goroutine: %v", workers, w, i, onCaller)
				}
				if err := f(i); err != nil {
					first.CompareAndSwap(nil, &err)
				}
			})
			if err := first.Load(); err != nil {
				return *err
			}
			return nil
		},
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for name, loop := range loops(t) {
		for _, workers := range []int{1, 2, 3, 8, 100} {
			const n = 23
			counts := make([]atomic.Int32, n)
			if err := loop(n, workers, func(i int) error {
				counts[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("%s, workers=%d: index %d ran %d times", name, workers, i, c)
				}
			}
		}
	}
}

// TestForReturnsFirstErrorAndStopsScheduling: For returns the error and
// calls no f after it. Fan, under it, has no stop of its own and runs every
// index, each on a worker in range, the caller's goroutine being worker 0.
func TestForReturnsFirstErrorAndStopsScheduling(t *testing.T) {
	boom := errors.New("boom")
	for name, loop := range loops(t) {
		for _, workers := range []int{1, 3, 4} {
			var ran atomic.Int32
			err := loop(1000, workers, func(i int) error {
				ran.Add(1)
				if i == 3 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("%s, workers=%d: got %v want %v", name, workers, err, boom)
			}
			switch {
			case name == "Fan" && ran.Load() != 1000:
				t.Errorf("Fan, workers=%d: %d of 1000 indices ran", workers, ran.Load())
			case name == "For" && workers == 1 && ran.Load() != 4:
				// The serial path stops right after the failing index.
				t.Errorf("For, serial: ran %d, want boom after 4 calls", ran.Load())
			case name == "For" && ran.Load() == 1000:
				// After the failure no further f is called; only a handful
				// of calls in flight can complete.
				t.Errorf("For, workers=%d: error did not stop scheduling: all 1000 items ran", workers)
			}
		}
	}
}

func TestForZeroItems(t *testing.T) {
	if err := For(0, 4, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}
