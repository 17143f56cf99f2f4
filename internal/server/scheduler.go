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

// scheduler replaces the per-session batcher goroutines of the first
// serving cut. Sessions enqueue jobs into their own bounded queues; one
// dispatcher goroutine claims work across sessions in round-robin quanta —
// up to MaxBatch jobs per session turn, so one chatty session cannot starve
// the others — and hands every job to a shared bounded worker pool as a
// henn.Unit. The unit carries its session's Context, so one pool serves any
// number of key sets and total server parallelism is bounded by a single
// budget — Options.Workers — instead of sessions × workers.
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
	quanta       atomic.Int64
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
// after every successful enqueue.
func (d *scheduler) notify(sess *session) {
	d.mu.Lock()
	if !sess.inRing && !sess.dispatching {
		sess.inRing = true
		sess.windowAt = time.Time{}
		if d.srv.opts.BatchWindow > 0 {
			sess.windowAt = time.Now().Add(d.srv.opts.BatchWindow)
		}
		d.ring = append(d.ring, sess)
	}
	d.mu.Unlock()
	d.kick()
}

// sessionClosed makes a deleted or evicted session's queued jobs fail now —
// not after BatchWindow, and never by running paid inference for a dead
// session: the session is made immediately dispatchable.
func (d *scheduler) sessionClosed(sess *session) {
	d.mu.Lock()
	sess.windowAt = time.Time{}
	if !sess.inRing && !sess.dispatching && len(sess.jobs) > 0 {
		sess.inRing = true
		d.ring = append(d.ring, sess)
	}
	d.mu.Unlock()
	d.kick()
}

func (d *scheduler) kick() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// run is the dispatcher loop. It exits when the server closes, after
// failing every still-queued job.
func (d *scheduler) run() {
	defer d.srv.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		sess, wait := d.next()
		if sess != nil {
			d.dispatch(sess)
			continue
		}
		if wait > 0 {
			resetTimer(timer, wait)
			select {
			case <-timer.C:
			case <-d.wake:
			case <-d.srv.closed:
				d.shutdown()
				return
			}
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

func resetTimer(t *time.Timer, wait time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(wait)
}

// next picks the session to serve. A nil session with wait > 0 means the
// earliest BatchWindow deadline is that far away; nil with wait 0 means
// idle.
func (d *scheduler) next() (*session, time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.ring) == 0 {
		return nil, 0
	}
	now := time.Now()
	var minWait time.Duration
	for i, sess := range d.ring {
		if eligible(sess, now, d.srv.opts.MaxBatch*sess.weight) {
			d.ring = append(d.ring[:i], d.ring[i+1:]...)
			sess.inRing = false
			sess.dispatching = true
			return sess, 0
		}
		if w := sess.windowAt.Sub(now); minWait == 0 || w < minWait {
			minWait = w
		}
	}
	return nil, max(minWait, time.Millisecond)
}

// eligible reports whether the session's turn can start: its batch window
// elapsed, a full quantum is already queued, or the session died (its jobs
// must fail now). quantum is the session's own full quantum — weight ×
// MaxBatch — not the 1× base: a weighted session's window is only cut short
// once the whole quantum it is entitled to has queued. Called only from
// next, under scheduler.mu.
func eligible(sess *session, now time.Time, quantum int) bool {
	if sess.windowAt.IsZero() || !now.Before(sess.windowAt) || len(sess.jobs) >= quantum {
		return true
	}
	select {
	case <-sess.done:
		return true
	default:
		return false
	}
}

// dispatch serves one scheduler turn for sess: claim jobs, then hand each
// to the shared pool as a henn.Unit (or fail them all if the session died).
// The quantum scales with the session's QoS weight.
func (d *scheduler) dispatch(sess *session) {
	quantum := d.srv.opts.MaxBatch * sess.weight
	var batch []*inferJob
claim:
	for len(batch) < quantum {
		select {
		case job := <-sess.jobs:
			batch = append(batch, job)
		default:
			break claim
		}
	}
	// Claimed jobs left the session queue but have not reached the pool yet
	// (Submit's zero-depth rendezvous can hold them a long time); count them
	// so a Stats snapshot cannot report an empty backlog while the claimed
	// quantum waits for workers.
	sess.claimed.Add(int64(len(batch)))
	select {
	case <-sess.done:
		d.abort(batch, errSessionClosed)
		sess.claimed.Add(-int64(len(batch)))
		d.failQueued(sess, errSessionClosed)
		d.finish(sess)
		return
	default:
	}
	if len(batch) > 0 {
		d.quanta.Add(1)
	}
	for i, job := range batch {
		// Submit can block a long time waiting for a free worker
		// (zero-depth rendezvous), so the session may die mid-batch;
		// re-checking here keeps a deleted session's remaining claimed
		// jobs from running as paid inference.
		select {
		case <-sess.done:
			d.abort(batch[i:], errSessionClosed)
			sess.claimed.Add(-int64(len(batch) - i))
			d.failQueued(sess, errSessionClosed)
			d.finish(sess)
			return
		default:
		}
		job := job
		// The unit retains the model stack so a retire that lands while it
		// executes cannot free the caches under it; the session's own bind
		// reference does not cover the unit, because the session may be
		// removed (releasing that reference) while the unit is in flight.
		sess.dep.Retain()
		// Queue wait ends here: the job leaves the dispatcher's hands for
		// the pool rendezvous, which the trace's dispatch span covers.
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
		// worker: the worker incremented UnitsRun concurrently with the
		// claimed decrement above, so a Stats snapshot could see one job in
		// both Backlog (still claimed) and UnitsRun. Submit's rendezvous
		// means ok implies a worker has the unit, so the count is accurate;
		// the ordering now only ever undercounts transiently.
		sess.claimed.Add(-1) // handed to a worker, or about to be aborted
		if !ok {
			sess.dep.Release()
			d.abort([]*inferJob{job}, errShuttingDown)
		} else {
			d.unitsRun.Add(1)
			sess.dep.AddUnitRun()
		}
	}
	d.finish(sess)
}

// finish ends a turn: the session goes back to the ring tail if jobs
// arrived while it was being served (already past their window wait).
func (d *scheduler) finish(sess *session) {
	d.mu.Lock()
	sess.dispatching = false
	if len(sess.jobs) > 0 && !sess.inRing {
		sess.inRing = true
		sess.windowAt = time.Time{}
		d.ring = append(d.ring, sess)
	}
	d.mu.Unlock()
}

// abort fails claimed jobs without running them.
func (d *scheduler) abort(batch []*inferJob, cause error) {
	for _, job := range batch {
		job.done <- inferResult{err: cause}
		d.unitsAborted.Add(1)
	}
}

// failQueued drains and fails everything still queued on sess.
func (d *scheduler) failQueued(sess *session, cause error) {
	for {
		select {
		case job := <-sess.jobs:
			d.abort([]*inferJob{job}, cause)
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
	// Quanta counts scheduler turns that claimed at least one job.
	Quanta int64 `json:"quanta"`
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

// Stats reports scheduler counters (the upgrade experiment, hennbench and
// the regression suite read these). It is a pure read of the
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
		Quanta:        s.sched.quanta.Load(),
		PeakInFlight:  s.sched.pool.Peak(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		HeapBytes:     mem.HeapAlloc,
		Models:        perModel,
	}
}
