package server

import (
	"bytes"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/registry"
	"github.com/efficientfhe/smartpaf/internal/telemetry"
)

// Options tune the serving front end. The zero value is usable.
type Options struct {
	// Workers is the server-wide inference worker budget shared by every
	// session of every model, following the repo-wide convention: 0 or 1
	// runs one worker, negative uses all cores. The number of concurrently
	// executing inference units is bounded by this one budget no matter how
	// many sessions or models are active (serving deployments want -1;
	// cmd/hennserve defaults to it). Each of the Workers goroutines takes
	// one job per session turn, round-robin across sessions with queued
	// work, and runs it itself.
	// Within a unit, each linear layer fans its rotations across the
	// process-wide GOMAXPROCS/ring.SetParallelism width while no other fan
	// holds the ring's gate, so a one-worker budget still uses the idle
	// cores — Workers counts units, not goroutines.
	Workers int
	// KeyBudget caps the bytes of expanded evaluation keys that live and
	// registering sessions hold together, whatever their model (a session
	// costs ckks.Parameters.EvaluationKeysSize): a registration past it is a
	// 429 before its keys are read. 0 means DefaultKeyBudget.
	KeyBudget int64
	// StateDir persists every deployed bundle as <name>@<version>.hemodel
	// so a restarted server reloads its catalog: hot deploys and supersedes
	// are saved on publish, retired and superseded versions are removed.
	// Corrupt or truncated files in the directory are skipped with a logged
	// warning, never a failed startup. Empty disables persistence.
	StateDir string
	// AdminToken guards the admin mutations (POST /v1/models and DELETE
	// /v1/models/{name}): when set, requests must carry
	// "Authorization: Bearer <token>" — 401 without a token, 403 with a
	// wrong one. Empty leaves the admin endpoints open (trusted network).
	AdminToken string
	// SessionTTL evicts sessions idle for longer than this, so abandoned
	// registrations cannot pin key material (or lock out new sessions)
	// forever. Negative disables eviction. Default 30 minutes.
	SessionTTL time.Duration
	// QueueDepth is the per-session request queue. Default 1024.
	QueueDepth int
	// AccessLog, when set, receives one structured record per HTTP request
	// (method, path, session, model, status, bytes, duration, trace id).
	// Nil disables access logging; cmd/hennserve wires -log-requests here.
	AccessLog *slog.Logger
}

// maxBundleBytes caps admin deploy bundles, the one body no model sizes.
// Registrations and ciphertexts are bounded by their model instead: a
// registration body has one exact size, a ciphertext a largest one.
const maxBundleBytes = 1 << 30

// DefaultKeyBudget is Options.KeyBudget's default, 2 GiB: 72 sessions of the
// 128-wide model at LogN 10 (29.8 MB of keys each), 3 of the demo at N = 2^15.
const DefaultKeyBudget = 2 << 30

func (o Options) withDefaults() Options {
	if o.KeyBudget <= 0 {
		o.KeyBudget = DefaultKeyBudget
	}
	if o.SessionTTL == 0 {
		o.SessionTTL = 30 * time.Minute
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	return o
}

// Server multiplexes encrypted-inference sessions onto the deployed models
// of a registry. The henn/ckks stack is safe for concurrent use, so every
// session of a model shares that model's compiled parameters and encoder;
// each session owns only the evaluator bound to its client's evaluation
// keys. All sessions' jobs — across every model — flow through one scheduler
// and its bounded set of workers (see scheduler.go): the unit of work carries
// its session's context, so a single worker budget serves the whole catalog.
type Server struct {
	reg   *registry.Registry
	opts  Options
	sched *scheduler

	// Telemetry plane (see telemetry.go): built once in New, immutable
	// after. The scheduler and handlers record into these lock-cheaply;
	// GET /metrics renders the registry, GET /v1/traces reads the ring.
	start      time.Time
	metrics    *telemetry.Registry
	traces     *telemetry.TraceRing
	httpReqs   *telemetry.CounterVec
	httpLat    *telemetry.HistogramVec
	unitLat    *telemetry.HistogramVec
	queueWait  *telemetry.HistogramVec
	compileLat *telemetry.Histogram
	stageLat   *telemetry.HistogramVec
	regLat     *telemetry.HistogramVec // handleRegister's phases
	payloads   *telemetry.CounterVec   // wire payload bytes read and written, by kind

	mu sync.RWMutex
	// sessions is the live session table and keyBytes the key budget's
	// charge (its sessions plus registrations in flight), guarded by mu.
	// closed is not: it is created once and only ever closed under the
	// lock, while readers select on it lock-free.
	sessions map[string]*session
	keyBytes int64
	closed   chan struct{}
	wg       sync.WaitGroup
}

type session struct {
	id string
	// dep is the model stack this session is bound to; the session holds
	// one registry reference from registration until removal.
	dep *registry.Deployed
	// ctx carries the evaluator bound to this client's evaluation keys.
	ctx      *henn.Context
	keyBytes int64 // what the keys cost the key budget
	jobs     chan *inferJob
	// done is closed when the session is deleted, evicted, or its model is
	// retired; the scheduler fails its queued jobs and waiting handlers
	// turn it into a 410.
	done chan struct{}
	// lastUsed is the unix-nano timestamp of the latest request, read by
	// the TTL janitor.
	lastUsed atomic.Int64

	// unitLat and queueWait are this session's model-labeled latency
	// series, resolved once at registration so the worker hot path
	// records without a label lookup. Immutable after registration.
	unitLat   *telemetry.Histogram
	queueWait *telemetry.Histogram

	// inRing reports whether the session sits in the scheduler's fair
	// ring. Guarded by scheduler.mu.
	inRing bool
}

func (sess *session) touch() { sess.lastUsed.Store(time.Now().UnixNano()) }

type inferJob struct {
	ct   *ckks.Ciphertext
	done chan inferResult
	// enqueuedAt timestamps the accept, for queue-wait accounting; trace is
	// the request's trace, threaded through the scheduler into the unit
	// (nil on untraced submissions).
	enqueuedAt time.Time
	trace      *telemetry.Trace
}

type inferResult struct {
	ct  *ckks.Ciphertext
	err error
}

// New builds a server and deploys the given models into its registry. A
// server may start with no models and have them hot-deployed over HTTP.
// With Options.StateDir set, bundles persisted by an earlier run are
// reloaded first and an initial model whose name is already live in the
// reloaded catalog is skipped — restarting with the same flags is
// idempotent, the durable catalog wins.
func New(opts Options, models ...*registry.Model) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		reg:      registry.New(),
		opts:     opts,
		sessions: map[string]*session{},
		closed:   make(chan struct{}),
	}
	s.initTelemetry()
	if opts.StateDir != "" {
		store, err := registry.OpenStore(opts.StateDir)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		for _, w := range s.reg.UseStore(store) {
			log.Printf("server: state: %v", w)
		}
	}
	for _, m := range models {
		d, err := s.reg.Deploy(m)
		if err != nil {
			// With a state dir, the durable catalog wins: a startup model
			// whose name it already holds is skipped, so restarting with
			// the same flags is idempotent. Without one, a duplicate
			// startup model is an operator error and fails loudly.
			if opts.StateDir != "" && errors.Is(err, registry.ErrExists) {
				continue
			}
			return nil, fmt.Errorf("server: %w", err)
		}
		s.compileLat.Record(d.CompileTime())
	}
	s.sched = newScheduler(s)
	s.wg.Add(s.sched.workers)
	for range s.sched.workers {
		go s.sched.work()
	}
	if s.opts.SessionTTL > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	return s, nil
}

// Registry exposes the model catalog (deploy/retire programmatically, read
// counters). cmd/hennserve and tests use it; HTTP clients go through the
// /v1/models endpoints.
func (s *Server) Registry() *registry.Registry { return s.reg }

// janitor evicts sessions whose last request is older than SessionTTL. It
// sweeps four times per TTL, but never more often than once a millisecond.
func (s *Server) janitor() {
	defer s.wg.Done()
	tick := time.NewTicker(max(s.opts.SessionTTL/4, time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-s.opts.SessionTTL).UnixNano()
		s.closeSessions(func(sess *session) bool { return sess.lastUsed.Load() < cutoff })
	}
}

// closeSessions is the one session-teardown path. Under the lock, every
// session match accepts leaves the table and the key budget and has its done
// channel closed: waiting handlers answer 410, and its next scheduler turn
// fails whatever it still has queued. Each model reference is released after
// the lock. It reports how many sessions it closed.
func (s *Server) closeSessions(match func(*session) bool) int {
	var closed []*session
	s.mu.Lock()
	for id, sess := range s.sessions {
		if match(sess) {
			delete(s.sessions, id)
			s.keyBytes -= sess.keyBytes
			close(sess.done)
			closed = append(closed, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range closed {
		sess.dep.Release()
	}
	return len(closed)
}

// removeSession deletes a session by id, reporting whether it existed.
func (s *Server) removeSession(id string) bool {
	return s.closeSessions(func(sess *session) bool { return sess.id == id }) > 0
}

// retireModel removes model versions from the catalog ("name" retires every
// version, "name@N" just one) and closes every session bound to them: queued
// jobs fail 410, in-flight units finish, and each stack is freed once the
// last of them answers.
func (s *Server) retireModel(ref string) error {
	deps, err := s.reg.Retire(ref)
	if err != nil {
		return err
	}
	retired := make(map[*registry.Deployed]bool, len(deps))
	for _, d := range deps {
		retired[d] = true
	}
	s.closeSessions(func(sess *session) bool { return retired[sess.dep] })
	return nil
}

// Close stops the scheduler: queued requests fail 503, running units finish
// and answer; once every worker and the janitor exited, it closes every session.
func (s *Server) Close() {
	s.mu.Lock()
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	s.mu.Unlock()
	s.sched.stop()
	s.wg.Wait()
	s.closeSessions(func(*session) bool { return true })
}

// chargeKeys adds n bytes to the key budget's charge, or reports false when
// the budget cannot hold them. A release (n < 0) always succeeds.
func (s *Server) chargeKeys(n int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.keyBytes+n > s.opts.KeyBudget {
		return false
	}
	s.keyBytes += n
	return true
}

// Handler returns the HTTP API, wrapped in the telemetry middleware (see
// instrument in telemetry.go): every route is counted and timed, and infer
// requests are traced end to end.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/models/{name}", s.handleModelNamed)
	mux.HandleFunc("POST /v1/models", s.admin(s.handleDeploy))
	mux.HandleFunc("DELETE /v1/models/{name}", s.admin(s.handleRetire))
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceByID)
	mux.HandleFunc("POST /v1/sessions", s.handleRegister)
	mux.HandleFunc(routeInfer, s.handleInfer)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.Handle("GET /metrics", s.MetricsHandler())
	return s.instrument(mux)
}

// admin guards a mutation handler with the bearer token when Options.
// AdminToken is set: 401 (with a WWW-Authenticate challenge) when the
// request carries no bearer token, 403 when it carries the wrong one. The
// comparison is constant-time so the token cannot be guessed byte by byte.
func (s *Server) admin(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.opts.AdminToken != "" {
			tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if !ok || tok == "" {
				w.Header().Set("WWW-Authenticate", `Bearer realm="hennserve admin"`)
				writeError(w, http.StatusUnauthorized, "admin endpoint: bearer token required")
				return
			}
			if subtle.ConstantTimeCompare([]byte(tok), []byte(s.opts.AdminToken)) != 1 {
				writeError(w, http.StatusForbidden, "admin endpoint: invalid token")
				return
			}
		}
		next(w, r)
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.removeSession(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "unknown session")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//hennlint:err-ok the status line is already on the wire; an Encode failure here means the client hung up and there is nothing left to signal
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// readBody reads a request body of at most limit bytes into a buffer that
// grows as the bytes arrive: only admin deploy bundles take this path, whose
// size nothing bounds but maxBundleBytes, and an unreceived
// Content-Length must never size a gigabyte allocation. When it cannot, it
// has answered the request (413 over the limit, 400 otherwise) and reports
// false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, what string) ([]byte, bool) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "%s exceeds the %d-byte body limit", what, mbe.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "reading %s: %v", what, err)
		}
		return nil, false
	}
	return buf.Bytes(), true
}

// checkLength answers a request whose Content-Length is not size, the body
// size its model sets (413 longer, 400 shorter), before any of the body is
// read, and reports whether it did not. A body without a declared length
// passes: its reader holds it to size.
func checkLength(w http.ResponseWriter, r *http.Request, size int64, what string) bool {
	switch cl := r.ContentLength; {
	case cl > size:
		writeError(w, http.StatusRequestEntityTooLarge, "%s of %d bytes exceeds the model's %d", what, cl, size)
		return false
	case cl >= 0 && cl < size:
		writeError(w, http.StatusBadRequest, "%s of %d bytes, the model's is %d", what, cl, size)
		return false
	}
	return true
}

// runsPast reports whether r holds a byte more: a body read to the size its
// model sets must end there.
func runsPast(r io.Reader) bool {
	n, _ := io.ReadFull(r, make([]byte, 1))
	return n > 0
}

// readSized reads a ciphertext body, whose size the model sets, into one
// buffer of that size. The body must total exactly size bytes. When it
// cannot read the body, it has answered the request (413 longer, 400 shorter
// or unreadable) and reports false.
func readSized(w http.ResponseWriter, r *http.Request, size int64, what string) ([]byte, bool) {
	if !checkLength(w, r, size, what) {
		return nil, false
	}
	buf := make([]byte, size)
	got, err := io.ReadFull(r.Body, buf)
	switch {
	case err == nil:
		if runsPast(r.Body) {
			writeError(w, http.StatusRequestEntityTooLarge, "%s runs past the model's %d bytes", what, size)
			return nil, false
		}
	case err != io.EOF && err != io.ErrUnexpectedEOF:
		writeError(w, http.StatusBadRequest, "reading %s: %v", what, err)
		return nil, false
	default:
		writeError(w, http.StatusBadRequest, "%s ends at %d bytes, the model's is %d", what, got, size)
		return nil, false
	}
	return buf, true
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	list := s.reg.List()
	infos := make([]ModelInfo, len(list))
	for i, d := range list {
		infos[i] = infoFor(d)
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleModelNamed(w http.ResponseWriter, r *http.Request) {
	d, ok := s.reg.Resolve(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, infoFor(d))
}

// handleDeploy hot-deploys a marshaled registry.Model bundle. With
// ?supersede=true the bundle is published as the next version of its name
// and every live older version drains gracefully: existing sessions keep
// serving the old stack until they disconnect or TTL out, new registrations
// bind the new version.
func (s *Server) handleDeploy(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r, maxBundleBytes, "model bundle")
	if !ok {
		return
	}
	m := new(registry.Model)
	if err := m.UnmarshalBinary(data); err != nil {
		writeError(w, http.StatusBadRequest, "model bundle: %v", err)
		return
	}
	publish := s.reg.Deploy
	if r.URL.Query().Get("supersede") == "true" {
		publish = s.reg.Supersede
	}
	d, err := publish(m)
	if err != nil {
		if errors.Is(err, registry.ErrExists) {
			writeError(w, http.StatusConflict, "%v (POST /v1/models?supersede=true to roll the version)", err)
			return
		}
		writeError(w, http.StatusBadRequest, "deploy: %v", err)
		return
	}
	s.compileLat.Record(d.CompileTime())
	writeJSON(w, http.StatusCreated, infoFor(d))
}

func (s *Server) handleRetire(w http.ResponseWriter, r *http.Request) {
	if err := s.retireModel(r.PathValue("name")); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

type registerResponse struct {
	SessionID string `json:"sessionID"`
	Model     string `json:"model"`
}

// handleRegister is resolve → charge → read → decode → validate → bind →
// insert. The model the query names fixes the body's exact size and its
// keys' cost, so an unknown model is a 404, a registration the key budget
// cannot hold a 429 and a declared length other than the body's a 413 or
// 400, all before a body byte is read. The body is decoded as it arrives,
// never held whole (frame.go): the literal must match the model's before any
// key byte is read, and the keys are decoded off the body one at a time.
// Every check on the shape of the uploaded keys lives in ckks
// (EvaluationKeySet.Validate), where the shapes are defined; a key set that
// passes cannot panic the key-switch loop at inference time.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	// Names may be versioned ("alpha@2") or bare ("alpha" — the newest live
	// version). There is no default model: an empty name is unknown too.
	ref := r.URL.Query().Get("model")
	dep, ok := s.reg.Resolve(ref)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model %q: name it in the model query parameter, POST /v1/sessions?model=name or name@version", ref)
		return
	}
	charge := int64(dep.Params().EvaluationKeysSize(len(dep.Rotations())))
	if !s.chargeKeys(charge) {
		writeError(w, http.StatusTooManyRequests,
			"key budget full: a session of model %q holds %d bytes of keys, the budget is %d", ref, charge, s.opts.KeyBudget)
		return
	}
	inserted := false // until the session table takes the charge over, every exit returns it
	defer func() {
		if !inserted {
			s.chargeKeys(-charge)
		}
	}()
	// Each phase that completes is timed into henn_register_seconds.
	mark := time.Now()
	phaseDone := func(phase string) {
		now := time.Now()
		s.regLat.With(phase).Record(now.Sub(mark))
		mark = now
	}
	params := dep.Params()
	size := int64(frameSize(dep.ParamBytes(), params, len(dep.Rotations())))
	if !checkLength(w, r, size, "registration body") {
		return
	}
	// rest is the body to its model's size; what it has left unread tells
	// how far a short body got.
	rest := &io.LimitedReader{R: r.Body, N: size}
	refuse := func(err error) {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			writeError(w, http.StatusBadRequest, "registration body ends at %d bytes, the model's is %d", size-rest.N, size)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
	}
	literal := make([]byte, len(dep.ParamBytes()))
	_, err := io.ReadFull(rest, literal)
	if err == nil && !bytes.Equal(literal, dep.ParamBytes()) {
		err = fmt.Errorf("session parameters do not match model %q's prescribed literal; fetch GET /v1/models/%s",
			dep.Model().Name, dep.Model().Name)
	}
	if err != nil {
		refuse(err)
		return
	}
	phaseDone("read")
	var keys ckks.EvaluationKeySet
	kr := params.NewKeyReader(rest)
	keys.Relin, err = kr.RelinearizationKey()
	if err == nil {
		keys.Rotations, err = kr.RotationKeys(len(dep.Rotations()))
	}
	if err != nil {
		refuse(fmt.Errorf("evaluation keys: %w", err))
		return
	}
	if runsPast(r.Body) {
		writeError(w, http.StatusRequestEntityTooLarge, "registration body runs past the model's %d bytes", size)
		return
	}
	phaseDone("decode")
	s.payloads.With("register").Add(uint64(size))
	if err := keys.Validate(params, dep.Rotations()); err != nil {
		writeError(w, http.StatusBadRequest, "evaluation keys: %v", err)
		return
	}
	phaseDone("validate")

	eval := ckks.NewEvaluator(params, keys.Relin).WithRotationKeys(keys.Rotations)
	sess := &session{
		dep:       dep,
		ctx:       henn.NewContext(params, dep.Encoder(), eval),
		keyBytes:  charge,
		jobs:      make(chan *inferJob, s.opts.QueueDepth),
		done:      make(chan struct{}),
		unitLat:   s.unitLat.With(dep.Ref()),
		queueWait: s.queueWait.With(dep.Ref()),
	}
	sess.touch()
	idBytes := make([]byte, 16)
	if _, err := rand.Read(idBytes); err != nil {
		writeError(w, http.StatusInternalServerError, "session id: %v", err)
		return
	}
	sess.id = hex.EncodeToString(idBytes)

	// Bind after all validation, and bind and insert under one hold of
	// s.mu: a retire or supersede that lands first fails Bind with a clean
	// 410, and one that lands after finds the session in the table its
	// session sweep reads.
	s.mu.Lock()
	select {
	case <-s.closed:
		err = errShuttingDown
	default:
		if err = dep.Bind(); err == nil {
			s.sessions[sess.id] = sess
			inserted = true
		}
	}
	s.mu.Unlock()
	switch {
	case errors.Is(err, errShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	case errors.Is(err, registry.ErrDraining):
		writeError(w, http.StatusGone,
			"model version %s is draining; register against %q for the newest version",
			dep.Ref(), dep.Name())
		return
	case err != nil:
		writeError(w, http.StatusGone, "model %q retired", dep.Model().Name)
		return
	}

	writeJSON(w, http.StatusOK, registerResponse{SessionID: sess.id, Model: dep.Ref()})
}

func (s *Server) lookup(id string) *session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[id]
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "unknown session")
		return
	}
	params := sess.dep.Params()
	// Every linear layer keeps one plan, encoded for one input level and
	// scale, so the door admits one input shape: the prescribed literal's
	// top level and default scale, what every client encrypts at. Another
	// shape would make each layer re-encode.
	data, ok := readSized(w, r, int64(params.CiphertextWireSize(params.MaxLevel())), "ciphertext")
	if !ok {
		return
	}
	s.payloads.With("infer_request").Add(uint64(len(data)))
	ct := new(ckks.Ciphertext)
	err := ct.UnmarshalBinary(data)
	if err == nil {
		err = ct.Validate(params, params.MaxLevel())
	}
	if err == nil && ct.Scale != params.DefaultScale() {
		err = fmt.Errorf("ciphertext scale %g, want the parameters' default %g", ct.Scale, params.DefaultScale())
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	sess.touch()
	job := &inferJob{
		ct:         ct,
		done:       make(chan inferResult, 1),
		enqueuedAt: time.Now(),
		trace:      telemetry.FromContext(r.Context()),
	}
	select {
	case sess.jobs <- job:
	case <-sess.done:
		writeError(w, http.StatusGone, "session closed")
		return
	case <-s.closed:
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	default:
		writeError(w, http.StatusTooManyRequests, "session queue full")
		return
	}
	s.sched.notify(sess)

	respond := func(res inferResult) {
		switch {
		case errors.Is(res.err, errSessionClosed):
			writeError(w, http.StatusGone, "session closed")
			return
		case errors.Is(res.err, errShuttingDown):
			writeError(w, http.StatusServiceUnavailable, "server shutting down")
			return
		case res.err != nil:
			writeError(w, http.StatusUnprocessableEntity, "inference: %v", res.err)
			return
		}
		out := res.ct.AppendWire(make([]byte, 0, params.CiphertextWireSize(res.ct.Level)), params)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(out)))
		n, _ := w.Write(out)
		s.payloads.With("infer_response").Add(uint64(n))
	}
	// Every accepted job gets a result, even across Close: the scheduler
	// fails queued jobs 503 and running units answer. A completed result
	// outranks a concurrently-closing session: the select below picks
	// randomly among ready cases, so that branch re-drains job.done before
	// discarding paid-for work.
	select {
	case res := <-job.done:
		respond(res)
	case <-sess.done:
		select {
		case res := <-job.done:
			respond(res)
		default:
			writeError(w, http.StatusGone, "session closed")
		}
	case <-r.Context().Done():
		// Client gone; the worker's send still lands in the buffered done
		// channel and is dropped with the job.
	}
}
