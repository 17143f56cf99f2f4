package parallel

import "sync"

// Pool is a fixed budget of worker goroutines executing submitted tasks in
// submission order: any number of producers submit independent work units,
// and total parallelism stays bounded by the pool size no matter how many
// producers are active. Contrast For, which fans one caller's index range
// out and returns; a Pool is long-lived and shared.
type Pool struct {
	tasks  chan func()
	wg     sync.WaitGroup
	closed chan struct{}

	mu   sync.RWMutex
	down bool // guarded by mu
}

// NewPool starts a pool with the given worker budget, resolved through
// Workers (negative means all cores, 0 and 1 mean a single worker). queue
// is the depth of the submission buffer; 0 makes Submit rendezvous with a
// free worker, which gives producers exact backpressure against the budget.
func NewPool(workers, queue int) *Pool {
	p := &Pool{
		tasks:  make(chan func(), max(queue, 0)),
		closed: make(chan struct{}),
	}
	workers = Workers(workers)
	p.wg.Add(workers)
	for range workers {
		go p.work()
	}
	return p
}

func (p *Pool) work() {
	defer p.wg.Done()
	for {
		select {
		case task := <-p.tasks:
			task()
		case <-p.closed:
			// Keep consuming what was accepted before shutdown; Close
			// sweeps anything that lands in the buffer after the workers
			// saw it empty. The tasks channel is never closed (producers
			// may still be parked inside Submit's send).
			for {
				select {
				case task := <-p.tasks:
					task()
				default:
					return
				}
			}
		}
	}
}

// Submit hands a task to the pool, blocking while the submission buffer is
// full. It reports false — and has not enqueued the task — once the pool is
// closed; a true return guarantees the task runs before Close returns.
func (p *Pool) Submit(task func()) bool {
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
			task()
		default:
			return
		}
	}
}
