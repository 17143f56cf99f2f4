package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsEverything checks that every accepted task executes exactly
// once across many producers.
func TestPoolRunsEverything(t *testing.T) {
	p := NewPool(4, 0)
	const producers, perProducer = 8, 50
	var ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if !p.Submit(func() { ran.Add(1) }) {
					t.Error("submit refused before Close")
					return
				}
			}
		}()
	}
	wg.Wait()
	p.Close()
	if got := ran.Load(); got != producers*perProducer {
		t.Fatalf("ran %d tasks, want %d", got, producers*perProducer)
	}
}

// TestPoolBoundsParallelism is the budget property: no matter how many
// producers push, concurrently running tasks never exceed the worker count.
func TestPoolBoundsParallelism(t *testing.T) {
	const budget = 3
	p := NewPool(budget, 0)
	var inFlight, maxSeen atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				p.Submit(func() {
					n := inFlight.Add(1)
					for {
						old := maxSeen.Load()
						if n <= old || maxSeen.CompareAndSwap(old, n) {
							break
						}
					}
					time.Sleep(200 * time.Microsecond)
					inFlight.Add(-1)
				})
			}
		}()
	}
	wg.Wait()
	p.Close()
	if got := maxSeen.Load(); got > budget {
		t.Fatalf("observed %d concurrent tasks, budget is %d", got, budget)
	}
	if maxSeen.Load() < 1 {
		t.Fatal("no task was ever observed running")
	}
}

// TestPoolCloseSemantics: Close waits for accepted tasks, and Submit
// reports false afterwards.
func TestPoolCloseSemantics(t *testing.T) {
	p := NewPool(2, 4)
	var ran, running atomic.Int64
	for i := 0; i < 10; i++ {
		if !p.Submit(func() {
			running.Add(1)
			time.Sleep(time.Millisecond)
			ran.Add(1)
			running.Add(-1)
		}) {
			t.Fatal("submit refused before Close")
		}
	}
	p.Close()
	if got := ran.Load(); got != 10 {
		t.Fatalf("Close returned with %d/10 tasks run", got)
	}
	if p.Submit(func() { t.Error("task ran after Close") }) {
		t.Fatal("submit accepted after Close")
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("running %d after Close", n)
	}
	p.Close() // idempotent
}

// TestPoolWorkerResolution: the knob follows the repo-wide convention. Of
// n+1 blocking tasks submitted to a pool of n resolved workers, exactly n
// run at once.
func TestPoolWorkerResolution(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {5, 5}, {-1, runtime.GOMAXPROCS(0)}} {
		p := NewPool(tc.in, 0)
		var started atomic.Int64
		gate := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i <= tc.want; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Submit(func() {
					started.Add(1)
					<-gate
				})
			}()
		}
		deadline := time.Now().Add(10 * time.Second)
		for started.Load() < int64(tc.want) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // room for a surplus worker to start the last task
		if got := started.Load(); got != int64(tc.want) {
			t.Errorf("NewPool(%d): %d tasks running at once, want %d", tc.in, got, tc.want)
		}
		close(gate)
		wg.Wait()
		p.Close()
	}
}

// TestPoolSubmitDuringClose races producers against Close: every Submit
// must either run its task or report false — no accepted task may vanish.
func TestPoolSubmitDuringClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		p := NewPool(2, 1)
		var accepted, ran atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if p.Submit(func() { ran.Add(1) }) {
						accepted.Add(1)
					}
				}
			}()
		}
		p.Close()
		wg.Wait()
		if accepted.Load() != ran.Load() {
			t.Fatalf("round %d: accepted %d, ran %d", round, accepted.Load(), ran.Load())
		}
	}
}
