package server

import (
	"errors"
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

// scheduler multiplexes every session's jobs onto one bounded set of
// workers. Sessions enqueue jobs into their own bounded queues; the
// Options.Workers worker goroutines serve the sessions with queued work in
// strict round-robin, one job per turn, so a flooding session holds any
// other behind at most one of its jobs. Each job runs on the worker that
// took it as a henn.Unit carrying its session's Context, so one budget
// serves any number of key sets and total server parallelism is bounded by
// Options.Workers instead of sessions × workers.
type scheduler struct {
	srv     *Server
	workers int

	// The session-table lock nests outside the ring lock: enqueue paths
	// may resolve a session under Server.mu before queueing here, and
	// nothing ring-side ever calls back into the session table. It also
	// nests outside registry.Deployed.mu: registration binds its model and
	// inserts the session under one hold of Server.mu, and no Deployed
	// method calls back into the server.
	mu       sync.Mutex
	ready    *sync.Cond // signalled per enqueued job, broadcast on stop
	ring     []*session // sessions with queued jobs, round-robin order, guarded by mu
	stopping bool       // guarded by mu

	running, peak atomic.Int64
	unitsRun      atomic.Int64
	unitsAborted  atomic.Int64
}

func newScheduler(srv *Server) *scheduler {
	d := &scheduler{srv: srv, workers: parallel.Workers(srv.opts.Workers)}
	d.ready = sync.NewCond(&d.mu)
	return d
}

// notify tells the scheduler sess has one more queued job. Handlers call it
// after every successful enqueue, so a session with queued jobs is always in
// the ring or about to be notified — a deleted session's jobs are reached on
// its next turn and fail there. After stop, the enqueuer fails the job here.
func (d *scheduler) notify(sess *session) {
	d.mu.Lock()
	stopping := d.stopping
	if !stopping {
		if !sess.inRing {
			sess.inRing = true
			d.ring = append(d.ring, sess)
		}
		// Every job wakes a worker, not only the one that puts its session
		// in the ring: a session's second job is owed a second idle worker
		// while the first runs.
		d.ready.Signal()
	}
	d.mu.Unlock()
	if stopping {
		d.failQueued(sess, errShuttingDown)
	}
}

// work is one worker's loop: take a turn, serve the job, repeat until the
// scheduler stops.
func (d *scheduler) work() {
	defer d.srv.wg.Done()
	for {
		sess, job := d.take()
		if job == nil {
			return
		}
		d.serve(sess, job)
	}
}

// take runs one scheduler turn: wait for a session with queued jobs, pop
// the ring head, take at most one of its jobs and put it back at the ring
// tail if it still has more. It returns a nil job once the scheduler stops.
func (d *scheduler) take() (*session, *inferJob) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for !d.stopping {
		if len(d.ring) == 0 {
			d.ready.Wait()
			continue
		}
		// Shift the ring and clear the vacated slot: a popped session must
		// not stay reachable from the backing array, or a closed session's
		// keys outlive it until a later enqueue overwrites the slot.
		sess := d.ring[0]
		n := copy(d.ring, d.ring[1:])
		d.ring[n] = nil
		d.ring = d.ring[:n]
		sess.inRing = false
		var job *inferJob
		select {
		case job = <-sess.jobs:
		default:
			// A notify can trail the job it announces: an earlier turn of
			// this session may already have taken it.
		}
		if len(sess.jobs) > 0 {
			sess.inRing = true
			d.ring = append(d.ring, sess)
		}
		if job != nil {
			return sess, job
		}
	}
	return nil, nil
}

// serve runs a taken job as a henn.Unit on the calling worker, or fails it
// and everything its session still has queued if the session died.
func (d *scheduler) serve(sess *session, job *inferJob) {
	select {
	case <-sess.done:
		d.abort(job, errSessionClosed)
		d.failQueued(sess, errSessionClosed)
		return
	default:
	}
	d.unitsRun.Add(1)
	sess.dep.AddUnitRun()
	n := d.running.Add(1)
	defer d.running.Add(-1)
	for p := d.peak.Load(); n > p && !d.peak.CompareAndSwap(p, n); p = d.peak.Load() {
	}
	start := time.Now()
	sess.queueWait.Record(start.Sub(job.enqueuedAt))
	job.trace.AddSpan("queue_wait", job.enqueuedAt, start, [2]string{"model", sess.dep.Ref()})
	out, err := henn.Unit{Ctx: sess.ctx, MLP: sess.dep.Model().MLP, CT: job.ct, Trace: job.trace}.Run()
	end := time.Now()
	sess.unitLat.Record(end.Sub(start))
	for stage, total := range job.trace.StageTotals() {
		d.srv.stageLat.With(stage).Record(total)
	}
	if err != nil {
		job.trace.AddSpan("unit", start, end, [2]string{"error", err.Error()})
	} else {
		job.trace.AddSpan("unit", start, end)
	}
	job.done <- inferResult{ct: out, err: err}
}

// abort fails a taken or queued job without running it.
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

// stop ends scheduling: idle workers exit at once, busy ones after their
// unit answers, and every job still queued fails now (one enqueued later
// fails in notify).
func (d *scheduler) stop() {
	d.mu.Lock()
	d.stopping = true
	ring := d.ring
	d.ring = nil
	d.ready.Broadcast()
	d.mu.Unlock()
	for _, sess := range ring {
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
	// Backlog is how many of the version's jobs wait in session queues.
	Backlog int `json:"backlog"`
	// UnitsRun counts inference units executed against the version.
	UnitsRun int64 `json:"unitsRun"`
}

// Stats is a point-in-time snapshot of scheduler counters, served at
// GET /v1/stats. Latency distributions and process gauges (uptime,
// goroutines, heap) are /metrics series, not repeated here.
type Stats struct {
	// Workers is the resolved server-wide worker budget.
	Workers int `json:"workers"`
	// Backlog is how many accepted jobs wait in session queues; a job
	// leaves its queue only when a worker takes it.
	Backlog int `json:"backlog"`
	// UnitsRun counts inference units the workers started executing.
	UnitsRun int64 `json:"unitsRun"`
	// UnitsAborted counts jobs failed without running (session deleted,
	// model retired, or server shutting down).
	UnitsAborted int64 `json:"unitsAborted"`
	// PeakInFlight is the high-water mark of concurrently executing units;
	// it never exceeds Workers.
	PeakInFlight int `json:"peakInFlight"`
	// Models breaks sessions, backlog and executed units down per deployed
	// model version, sorted by name then version. Retired versions drop out
	// of the snapshot; draining ones stay until their last session releases.
	Models []ModelStats `json:"models"`
}

// Stats reports scheduler counters (hennbench and the regression suite read
// these). It reads no telemetry series, so it never mints one.
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
		index[d] = &perModel[i]
	}
	backlog := 0
	s.mu.RLock()
	for _, sess := range s.sessions {
		queued := len(sess.jobs)
		backlog += queued
		if ms := index[sess.dep]; ms != nil {
			ms.Sessions++
			ms.Backlog += queued
		}
	}
	s.mu.RUnlock()
	return Stats{
		Workers:      s.sched.workers,
		Backlog:      backlog,
		UnitsRun:     s.sched.unitsRun.Load(),
		UnitsAborted: s.sched.unitsAborted.Load(),
		PeakInFlight: int(s.sched.peak.Load()),
		Models:       perModel,
	}
}
