package server

import (
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/efficientfhe/smartpaf/internal/telemetry"
)

// traceRingDepth bounds how many completed request traces the server retains
// for GET /v1/traces; older traces are evicted FIFO.
const traceRingDepth = 256

// routeInfer is the one route that gets a per-request trace: a trace is
// born at ingress, rides the request context into the scheduler and unit,
// and lands in the ring when the response is written.
const routeInfer = "POST /v1/sessions/{id}/infer"

// initTelemetry builds the server's metric registry, trace ring and the
// instrument series the scheduler and handlers record into. Called once from
// New, before the scheduler starts (gauge closures that read s.sched only
// run at scrape time, after New returns).
func (s *Server) initTelemetry() {
	s.start = time.Now()
	s.metrics = telemetry.NewRegistry()
	s.traces = telemetry.NewTraceRing(traceRingDepth)

	m := s.metrics
	s.httpReqs = m.NewCounterVec("henn_http_requests_total",
		"HTTP requests served, by route pattern and status code.", "route", "code")
	s.httpLat = m.NewHistogramVec("henn_http_request_seconds",
		"HTTP request latency, by route pattern.", "route")
	s.unitLat = m.NewHistogramVec("henn_unit_seconds",
		"Inference unit execution latency, by model version.", "model")
	s.queueWait = m.NewHistogramVec("henn_queue_wait_seconds",
		"Time from request enqueue to a worker starting its unit, by model version.", "model")
	s.compileLat = m.NewHistogram("henn_model_compile_seconds",
		"Deploy-time model compilation latency (parameter compilation and the rotation-step walk).")
	s.stageLat = m.NewHistogramVec("henn_ckks_stage_seconds",
		"Time one inference unit spent in each CKKS stage, from the unit's trace; a stage run inside a fan is charged its share of the fan's wall time.", "stage")

	s.regLat = m.NewHistogramVec("henn_register_seconds",
		"Time one session registration spent in each phase that completed: read (the parameter literal off the wire, matched), decode (the keys off the wire) and validate (key checks and the a_d expansion).", "phase")
	s.payloads = m.NewCounterVec("henn_payload_bytes_total",
		"Wire payload bytes, by kind: read in full (register: registration bodies; infer_request: input ciphertexts) and written (infer_response: result ciphertexts).", "kind")

	m.NewGaugeFunc("henn_uptime_seconds",
		"Seconds since the server was built.",
		func() float64 { return time.Since(s.start).Seconds() })
	m.NewGaugeFunc("henn_goroutines",
		"Live goroutines in the serving process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	m.NewGaugeFunc("henn_heap_bytes",
		"Heap bytes in use (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	// The session-table gauges read it under its lock.
	locked := func(f func() float64) func() float64 {
		return func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return f()
		}
	}
	m.NewGaugeFunc("henn_sessions", "Live registered sessions.",
		locked(func() float64 { return float64(len(s.sessions)) }))
	m.NewGaugeFunc("henn_session_key_bytes",
		"Expanded evaluation-key bytes live and registering sessions hold against the key budget.",
		locked(func() float64 { return float64(s.keyBytes) }))
	m.NewGaugeFunc("henn_backlog", "Accepted jobs waiting in session queues for a worker.",
		locked(func() float64 {
			n := 0
			for _, sess := range s.sessions {
				n += len(sess.jobs)
			}
			return float64(n)
		}))
	m.NewGaugeFunc("henn_workers",
		"Resolved server-wide inference worker budget.",
		func() float64 { return float64(s.sched.workers) })
	m.NewGaugeFunc("henn_peak_in_flight",
		"High-water mark of concurrently executing units.",
		func() float64 { return float64(s.sched.peak.Load()) })
	m.NewCounterFunc("henn_units_run_total",
		"Inference units the workers started executing.",
		func() float64 { return float64(s.sched.unitsRun.Load()) })
	m.NewCounterFunc("henn_units_aborted_total",
		"Jobs failed without running (session deleted, model retired, shutdown).",
		func() float64 { return float64(s.sched.unitsAborted.Load()) })
}

// MetricsHandler serves the Prometheus text exposition of the server's
// registry. Handler mounts it at GET /metrics; cmd/hennserve also mounts it
// on the separate -metrics-addr debug mux alongside pprof.
func (s *Server) MetricsHandler() http.Handler { return s.metrics.Handler() }

// handleTraces lists the retained request traces, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	trs := s.traces.Recent(traceRingDepth)
	snaps := make([]telemetry.TraceSnapshot, len(trs))
	for i, tr := range trs {
		snaps[i] = tr.Snapshot()
	}
	writeJSON(w, http.StatusOK, snaps)
}

// handleTraceByID serves one retained trace by the id the X-Henn-Trace
// response header carried.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	tr := s.traces.Get(r.PathValue("id"))
	if tr == nil {
		writeError(w, http.StatusNotFound, "unknown trace %q (the ring retains the last %d)", r.PathValue("id"), traceRingDepth)
		return
	}
	writeJSON(w, http.StatusOK, tr.Snapshot())
}

// statusRecorder captures the status code and body size a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

// pathSession extracts the session id from a /v1/sessions/{id}/... path and
// resolves the model it is bound to, for access-log attribution. The
// instrument middleware wraps the whole mux, so it cannot use PathValue —
// pattern matching has not happened yet when the trace must be born.
func (s *Server) pathSession(path string) (id, model string) {
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok || rest == "" {
		return "", ""
	}
	id, _, _ = strings.Cut(rest, "/")
	if sess := s.lookup(id); sess != nil {
		return id, sess.dep.Ref()
	}
	return id, ""
}

// instrument wraps the API mux with the telemetry plane: per-route request
// counters and latency histograms, a per-request trace for the infer route
// (id returned in X-Henn-Trace, completed trace retained in the ring), and
// the optional structured access log.
func (s *Server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, route := mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		rec := &statusRecorder{ResponseWriter: w}
		var tr *telemetry.Trace
		if route == routeInfer {
			tr = telemetry.NewTrace(telemetry.NewTraceID())
			w.Header().Set("X-Henn-Trace", tr.ID())
			r = r.WithContext(telemetry.WithTrace(r.Context(), tr))
		}
		// The timestamp follows trace creation, so every span offset in the
		// snapshot (including the request span's) is non-negative.
		start := time.Now()
		mux.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		dur := time.Since(start)
		s.httpReqs.With(route, strconv.Itoa(rec.status)).Inc()
		s.httpLat.With(route).Record(dur)
		traceID := ""
		if tr != nil {
			traceID = tr.ID()
			tr.AddSpan("request", start, time.Now(),
				[2]string{"route", route}, [2]string{"code", strconv.Itoa(rec.status)})
			s.traces.Put(tr)
		}
		if lg := s.opts.AccessLog; lg != nil {
			id, model := s.pathSession(r.URL.Path)
			lg.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("session", id),
				slog.String("model", model),
				slog.Int("status", rec.status),
				slog.Int64("bytes", rec.bytes),
				slog.Duration("duration", dur),
				slog.String("trace", traceID),
			)
		}
	})
}
