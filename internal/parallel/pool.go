package parallel

import (
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a fixed budget of worker goroutines executing submitted tasks in
// submission order. It is the shared-budget primitive behind the serving
// scheduler: any number of producers submit independent work units, and
// total parallelism stays bounded by the pool size no matter how many
// producers are active. Contrast For, which fans one caller's index range
// out and returns; a Pool is long-lived and shared.
type Pool struct {
	tasks   chan func()
	workers int
	wg      sync.WaitGroup
	closed  chan struct{}

	mu   sync.RWMutex
	down bool // guarded by mu

	running atomic.Int64
	peak    atomic.Int64
	obs     atomic.Pointer[TaskObserver]
}

// TaskObserver receives, for every task the pool executes, how long the
// task waited between submission and a worker picking it up (with a
// zero-depth buffer this is exactly the rendezvous wait against the worker
// budget) and how long it ran. Observers must be fast and must not submit
// to the pool.
type TaskObserver func(wait, run time.Duration)

// SetTaskObserver installs fn as the pool's task observer; nil uninstalls.
// Only tasks submitted after the call are observed.
func (p *Pool) SetTaskObserver(fn TaskObserver) {
	if fn == nil {
		p.obs.Store(nil)
		return
	}
	p.obs.Store(&fn)
}

// NewPool starts a pool with the given worker budget, resolved through
// Workers (negative means all cores, 0 and 1 mean a single worker). queue
// is the depth of the submission buffer; 0 makes Submit rendezvous with a
// free worker, which gives producers exact backpressure against the budget.
func NewPool(workers, queue int) *Pool {
	p := &Pool{
		tasks:   make(chan func(), max(queue, 0)),
		workers: Workers(workers),
		closed:  make(chan struct{}),
	}
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		go p.work()
	}
	return p
}

func (p *Pool) work() {
	defer p.wg.Done()
	for {
		select {
		case task := <-p.tasks:
			p.run(task)
		case <-p.closed:
			// Keep consuming what was accepted before shutdown; Close
			// sweeps anything that lands in the buffer after the workers
			// saw it empty. The tasks channel is never closed (producers
			// may still be parked inside Submit's send).
			for {
				select {
				case task := <-p.tasks:
					p.run(task)
				default:
					return
				}
			}
		}
	}
}

func (p *Pool) run(task func()) {
	n := p.running.Add(1)
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	task()
	p.running.Add(-1)
}

// Submit hands a task to the pool, blocking while the submission buffer is
// full. It reports false — and has not enqueued the task — once the pool is
// closed; a true return guarantees the task runs before Close returns.
func (p *Pool) Submit(task func()) bool {
	if obs := p.obs.Load(); obs != nil {
		inner := task
		submitted := time.Now()
		task = func() {
			start := time.Now()
			inner()
			(*obs)(start.Sub(submitted), time.Since(start))
		}
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.down {
		return false
	}
	// The read lock spans the (possibly blocking) send, so Close cannot
	// finish its handoff while an accepted task is still in flight.
	select {
	case p.tasks <- task:
		return true
	case <-p.closed:
		return false
	}
}

// Close stops intake and waits for every accepted task to finish, running
// stragglers that raced the workers' exit on the caller's goroutine.
// Subsequent Submit calls report false; Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	already := p.down
	p.down = true
	p.mu.Unlock()
	if !already {
		close(p.closed)
	}
	p.wg.Wait()
	for {
		select {
		case task := <-p.tasks:
			p.run(task)
		default:
			return
		}
	}
}

// Workers returns the resolved worker budget.
func (p *Pool) Workers() int { return p.workers }

// Running returns how many tasks are executing right now.
func (p *Pool) Running() int { return int(p.running.Load()) }

// Peak returns the high-water mark of concurrently executing tasks — the
// observable proof that a shared budget bounded parallelism.
func (p *Pool) Peak() int { return int(p.peak.Load()) }
