package server

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/parallel"
	"github.com/efficientfhe/smartpaf/internal/registry"
)

// Sentinel job-failure causes, mapped to HTTP statuses by handleInfer.
var (
	errSessionClosed = errors.New("session closed")
	errShuttingDown  = errors.New("server shutting down")
)

// scheduler multiplexes every session's jobs onto one bounded worker pool.
// Sessions enqueue jobs into their own bounded queues; one dispatcher
// goroutine serves the sessions with queued work in strict round-robin, one
// job per turn, so a flooding session holds any other behind at most one of
// its jobs. Each job runs on the shared pool as a henn.Unit carrying its
// session's Context, so one pool serves any number of key sets and total
// server parallelism is bounded by a single budget — Options.Workers —
// instead of sessions × workers.
type scheduler struct {
	srv  *Server
	pool *parallel.Pool
	wake chan struct{}

	// The session-table lock nests outside the queue lock: enqueue paths
	// may resolve a session under Server.mu before queueing here, and
	// nothing queue-side ever calls back into the session table.
	mu   sync.Mutex
	ring []*session // sessions with queued jobs, round-robin order, guarded by mu

	unitsRun     atomic.Int64
	unitsAborted atomic.Int64
}

func newScheduler(srv *Server) *scheduler {
	return &scheduler{
		srv: srv,
		// A zero-depth submission buffer makes every dispatch rendezvous
		// with a free worker: claimed jobs never pile up ahead of the
		// budget, and fairness decisions happen as late as possible.
		pool: parallel.NewPool(srv.opts.Workers, 0),
		wake: make(chan struct{}, 1),
	}
}

// notify tells the scheduler sess has one more queued job. Handlers call it
// after every successful enqueue, so a session with queued jobs is always in
// the ring, being served, or about to be notified — a deleted session's jobs
// are reached on its next turn and fail there.
func (d *scheduler) notify(sess *session) {
	d.mu.Lock()
	if !sess.inRing && !sess.dispatching {
		sess.inRing = true
		d.ring = append(d.ring, sess)
	}
	d.mu.Unlock()
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// run is the dispatcher loop. It exits when the server closes, after
// failing every still-queued job.
func (d *scheduler) run() {
	defer d.srv.wg.Done()
	for {
		if sess := d.next(); sess != nil {
			d.dispatch(sess)
			continue
		}
		select {
		case <-d.wake:
		case <-d.srv.closed:
			d.shutdown()
			return
		}
	}
}

// next pops the ring head, or returns nil when no session has queued jobs.
func (d *scheduler) next() *session {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.ring) == 0 {
		return nil
	}
	sess := d.ring[0]
	d.ring = append(d.ring[:0], d.ring[1:]...)
	sess.inRing = false
	sess.dispatching = true
	return sess
}

// dispatch serves one scheduler turn for sess: claim its next job and hand
// it to the shared pool as a henn.Unit, or fail everything it has queued if
// the session died.
func (d *scheduler) dispatch(sess *session) {
	defer d.finish(sess)
	// The claimed job leaves the session queue long before it reaches a
	// worker (Submit's zero-depth rendezvous can hold it for a whole unit).
	// Counting it before the receive means a Stats snapshot can briefly see
	// it twice, but never misses it while it waits.
	sess.claimed.Add(1)
	var job *inferJob
	select {
	case job = <-sess.jobs:
	default:
		// A notify can trail the job it announces: an earlier turn of this
		// session may already have served it.
		sess.claimed.Add(-1)
		return
	}
	select {
	case <-sess.done:
		sess.claimed.Add(-1)
		d.abort(job, errSessionClosed)
		d.failQueued(sess, errSessionClosed)
		return
	default:
	}
	// The unit retains the model stack so a retire that lands while it
	// executes cannot free the caches under it; the session's own bind
	// reference does not cover the unit, because the session may be removed
	// (releasing that reference) while the unit is in flight.
	sess.dep.Retain()
	// Queue wait ends here: the job leaves the dispatcher's hands for the
	// pool rendezvous, which the trace's dispatch span covers.
	submitted := time.Now()
	sess.queueWait.Record(submitted.Sub(job.enqueuedAt))
	job.trace.AddSpan("queue_wait", job.enqueuedAt, submitted)
	ok := d.pool.Submit(func() {
		defer sess.dep.Release()
		runStart := time.Now()
		job.trace.AddSpan("dispatch", submitted, runStart,
			[2]string{"model", sess.dep.Ref()})
		out, err := henn.Unit{Ctx: sess.ctx, MLP: sess.dep.Model().MLP, CT: job.ct, Trace: job.trace}.Run()
		end := time.Now()
		sess.unitLat.Record(end.Sub(runStart))
		if err != nil {
			job.trace.AddSpan("unit", runStart, end, [2]string{"error", err.Error()})
		} else {
			job.trace.AddSpan("unit", runStart, end)
		}
		job.done <- inferResult{ct: out, err: err}
	})
	// Count the unit here, after the claimed decrement, not inside the
	// worker: a worker-side increment races the decrement, so a Stats
	// snapshot could see one job in both Backlog (still claimed) and
	// UnitsRun. Submit's rendezvous means ok implies a worker has the unit,
	// so the count is accurate.
	sess.claimed.Add(-1)
	if !ok {
		sess.dep.Release()
		d.abort(job, errShuttingDown)
		return
	}
	d.unitsRun.Add(1)
	sess.dep.AddUnitRun()
}

// finish ends a turn: the session goes back to the ring tail if it still
// has queued jobs.
func (d *scheduler) finish(sess *session) {
	d.mu.Lock()
	sess.dispatching = false
	if len(sess.jobs) > 0 && !sess.inRing {
		sess.inRing = true
		d.ring = append(d.ring, sess)
	}
	d.mu.Unlock()
}

// abort fails a claimed job without running it.
func (d *scheduler) abort(job *inferJob, cause error) {
	job.done <- inferResult{err: cause}
	d.unitsAborted.Add(1)
}

// failQueued drains and fails everything still queued on sess.
func (d *scheduler) failQueued(sess *session, cause error) {
	for {
		select {
		case job := <-sess.jobs:
			d.abort(job, cause)
		default:
			return
		}
	}
}

// shutdown fails every queued job across all sessions; in-flight units
// finish in the pool (Server.Close drains it after the dispatcher exits).
func (d *scheduler) shutdown() {
	d.mu.Lock()
	d.ring = nil
	d.mu.Unlock()
	d.srv.mu.RLock()
	sessions := make([]*session, 0, len(d.srv.sessions))
	for _, sess := range d.srv.sessions {
		sessions = append(sessions, sess)
	}
	d.srv.mu.RUnlock()
	for _, sess := range sessions {
		d.failQueued(sess, errShuttingDown)
	}
}

// ModelStats is the per-model-version slice of a Stats snapshot, fed by the
// registry counters and the live session table.
type ModelStats struct {
	// Name is the model's base registry name.
	Name string `json:"name"`
	// Version is the registry-assigned version number.
	Version int `json:"version"`
	// Draining reports a superseded version still serving its existing
	// sessions; it leaves the snapshot once the last one releases.
	Draining bool `json:"draining,omitempty"`
	// Sessions is how many live sessions are bound to the version.
	Sessions int `json:"sessions"`
	// Backlog is how many of the version's jobs await a worker (queued in
	// sessions plus claimed by the dispatcher but not yet submitted).
	Backlog int `json:"backlog"`
	// UnitsRun counts inference units executed against the version.
	UnitsRun int64 `json:"unitsRun"`
	// Unit-latency and queue-wait quantiles in milliseconds, read from the
	// server's log-bucketed histograms (~±50% bucket resolution). Omitted
	// until the version has executed at least one unit.
	UnitP50Ms  float64 `json:"unitP50Ms,omitempty"`
	UnitP95Ms  float64 `json:"unitP95Ms,omitempty"`
	UnitP99Ms  float64 `json:"unitP99Ms,omitempty"`
	QueueP50Ms float64 `json:"queueP50Ms,omitempty"`
	QueueP99Ms float64 `json:"queueP99Ms,omitempty"`
}

// Stats is a point-in-time snapshot of scheduler counters, served at
// GET /v1/stats.
type Stats struct {
	// Workers is the resolved server-wide worker budget.
	Workers int `json:"workers"`
	// Backlog is how many accepted jobs still await a worker: queued in
	// per-session queues plus claimed by the dispatcher but blocked in the
	// zero-depth pool rendezvous. Jobs already executing do not count.
	Backlog int `json:"backlog"`
	// UnitsRun counts inference units the pool started executing.
	UnitsRun int64 `json:"unitsRun"`
	// UnitsAborted counts jobs failed without running (session deleted,
	// model retired, or server shutting down).
	UnitsAborted int64 `json:"unitsAborted"`
	// PeakInFlight is the high-water mark of concurrently executing units;
	// it never exceeds Workers.
	PeakInFlight int `json:"peakInFlight"`
	// UptimeSeconds is how long ago the server was built.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Goroutines is the live goroutine count of the serving process.
	Goroutines int `json:"goroutines"`
	// HeapBytes is the in-use heap (runtime.MemStats.HeapAlloc).
	HeapBytes uint64 `json:"heap_bytes"`
	// Models breaks sessions, backlog and executed units down per deployed
	// model version, sorted by name then version. Retired versions drop out
	// of the snapshot; draining ones stay until their last session releases.
	Models []ModelStats `json:"models"`
}

// Stats reports scheduler counters (hennbench and the regression suite read
// these). It is a pure read of the
// telemetry plane: it must never mint new series.
func (s *Server) Stats() Stats {
	deployed := s.reg.List()
	perModel := make([]ModelStats, len(deployed))
	index := make(map[*registry.Deployed]*ModelStats, len(deployed))
	for i, d := range deployed {
		perModel[i] = ModelStats{
			Name:     d.Name(),
			Version:  d.Version(),
			Draining: d.Draining(),
			UnitsRun: d.UnitsRun(),
		}
		// Find (not With): a version no session ever ran units for has no
		// series, and a stats scrape must not create one.
		if h := s.unitLat.Find(d.Ref()); h.Count() > 0 {
			perModel[i].UnitP50Ms = h.Quantile(0.50) * 1e3
			perModel[i].UnitP95Ms = h.Quantile(0.95) * 1e3
			perModel[i].UnitP99Ms = h.Quantile(0.99) * 1e3
		}
		if h := s.queueWait.Find(d.Ref()); h.Count() > 0 {
			perModel[i].QueueP50Ms = h.Quantile(0.50) * 1e3
			perModel[i].QueueP99Ms = h.Quantile(0.99) * 1e3
		}
		index[d] = &perModel[i]
	}
	backlog := 0
	s.mu.RLock()
	for _, sess := range s.sessions {
		pending := len(sess.jobs) + int(sess.claimed.Load())
		backlog += pending
		if ms := index[sess.dep]; ms != nil {
			ms.Sessions++
			ms.Backlog += pending
		}
	}
	s.mu.RUnlock()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return Stats{
		Workers:       s.sched.pool.Workers(),
		Backlog:       backlog,
		UnitsRun:      s.sched.unitsRun.Load(),
		UnitsAborted:  s.sched.unitsAborted.Load(),
		PeakInFlight:  s.sched.pool.Peak(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		HeapBytes:     mem.HeapAlloc,
		Models:        perModel,
	}
}
