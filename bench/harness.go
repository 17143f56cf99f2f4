package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/efficientfhe/smartpaf/internal/server"
)

// wrongTolerance is the largest |decrypted − InferPlain| a logit may show
// before the answer counts as wrong.
var wrongTolerance = math.Exp2(-12)

// countingTransport counts request-body bytes and times of session
// registrations (POST /v1/sessions) on their way to the real transport.
type countingTransport struct {
	base *http.Transport

	mu        sync.Mutex
	regBytes  []int64
	regPostMs []float64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || req.URL.Path != "/v1/sessions" {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	ms := msSince(start)
	t.mu.Lock()
	t.regBytes = append(t.regBytes, req.ContentLength)
	t.regPostMs = append(t.regPostMs, ms)
	t.mu.Unlock()
	return resp, err
}

// registrations returns the body size and POST time of every registration
// seen so far.
func (t *countingTransport) registrations() (bytes []int64, postMs []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]int64(nil), t.regBytes...), append([]float64(nil), t.regPostMs...)
}

// stack is one fresh serving stack: the real server.Server on a loopback
// listener, the real server.Client in front of it, and the workload's
// long-lived sessions.
type stack struct {
	srv      *server.Server
	hs       *http.Server
	served   chan error
	tr       *countingTransport
	client   *server.Client
	sessions []*server.Session
	// sessionSetupS holds the wall time of every set-up NewSession.
	sessionSetupS []float64
}

// setUp builds the stack a workload runs on: deploy, server start, listener,
// and key generation plus registration of each long-lived session.
func setUp(ctx context.Context, w workload, in *inputs) (*stack, error) {
	srv, err := server.New(server.Options{Workers: w.workers}, in.model)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	st := &stack{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		// One connection per client goroutine, never more than the box has
		// cores: the load generator lives in this process.
		tr: &countingTransport{base: &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}},
	}
	go func() { st.served <- st.hs.Serve(ln) }()
	st.client = server.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: st.tr})
	for _, seed := range in.keySeeds {
		start := time.Now()
		sess, err := st.client.NewSession(ctx, seed)
		if err != nil {
			_ = st.tearDown()
			return nil, fmt.Errorf("registering session: %w", err)
		}
		st.sessionSetupS = append(st.sessionSetupS, time.Since(start).Seconds())
		st.sessions = append(st.sessions, sess)
	}
	return st, nil
}

// tearDown stops the HTTP server, the inference server and the client's
// idle connections, and returns once the serve goroutine has ended.
func (st *stack) tearDown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	st.srv.Close()
	st.tr.base.CloseIdleConnections()
	if serr := <-st.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// waitGoroutines reports whether the goroutine count returned to baseline.
// Connection goroutines finish shortly after their sockets close, so the
// count is polled for a moment before a survivor is declared.
func waitGoroutines(baseline int) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines alive after teardown, baseline %d:\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// tally is what the clients of one window observed.
type tally struct {
	mu sync.Mutex
	// latMs holds Session.Infer latencies of long-lived-session clients.
	latMs []float64
	// newSessionS holds the churning client's NewSession wall times.
	newSessionS []float64
	// bits holds each verified answer's −log2(max|decrypted − InferPlain|).
	bits      []float64
	attempted int
	failed    int
	// rate is the sum over clients of verified inferences per second.
	rate     float64
	firstErr error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// check compares decrypted logits with the plaintext reference and returns
// the answer's precision in bits.
func check(got, want []float64) (bits float64, err error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("got %d logits, want %d", len(got), len(want))
	}
	worst := 0.0
	for i := range want {
		worst = max(worst, math.Abs(got[i]-want[i]))
	}
	if !(worst <= wrongTolerance) {
		return 0, fmt.Errorf("logit off InferPlain by %g (limit %g)", worst, wrongTolerance)
	}
	return -math.Log2(max(worst, math.SmallestNonzeroFloat64)), nil
}

// inferFunc runs one verified request; the untraced window passes
// Session.Infer, the traced pass its span-recording equivalent.
type inferFunc func(ctx context.Context, client int, sess *server.Session, x []float64) ([]float64, error)

func plainInfer(ctx context.Context, _ int, sess *server.Session, x []float64) ([]float64, error) {
	return sess.Infer(ctx, x)
}

// client is one closed-loop client: it calls one(i) for i = 0, 1, ... until
// the deadline, each call sending a request only after the previous reply
// was decrypted and checked, and stops after the request in flight at the
// deadline. one returns the answer's precision.
func (t *tally) client(ctx context.Context, deadline time.Time, one func(i int) (bits float64, err error)) {
	start := time.Now()
	done := 0
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		bits, err := one(i)
		t.mu.Lock()
		t.attempted++
		if err != nil {
			t.fail(err)
		} else {
			done++
			t.bits = append(t.bits, bits)
		}
		t.mu.Unlock()
	}
	rate := float64(done) / time.Since(start).Seconds()
	t.mu.Lock()
	t.rate += rate
	t.mu.Unlock()
}

// window drives the workload's clients for the given duration and returns
// what they observed.
func window(ctx context.Context, w workload, in *inputs, st *stack, d time.Duration, infer inferFunc) *tally {
	t := &tally{}
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < w.inferClients; c++ {
		sess := st.sessions[c%len(st.sessions)]
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t.client(ctx, deadline, func(i int) (float64, error) {
				k := i % inputPool
				t0 := time.Now()
				got, err := infer(ctx, c, sess, in.x[c][k])
				lat := msSince(t0)
				if err != nil {
					return 0, err
				}
				bits, err := check(got, in.want[c][k])
				if err == nil {
					t.mu.Lock()
					t.latMs = append(t.latMs, lat)
					t.mu.Unlock()
				}
				return bits, err
			})
		}(c)
	}
	if w.churn {
		c := w.inferClients
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.client(ctx, deadline, func(i int) (float64, error) {
				k := i % inputPool
				t0 := time.Now()
				sess, err := st.client.NewSession(ctx, in.churnSeed+int64(i))
				if err != nil {
					return 0, err
				}
				setup := time.Since(t0).Seconds()
				got, err := sess.Infer(ctx, in.x[c][k])
				if cerr := sess.Close(ctx); err == nil {
					err = cerr
				}
				if err != nil {
					return 0, err
				}
				bits, err := check(got, in.want[c][k])
				if err == nil {
					t.mu.Lock()
					t.newSessionS = append(t.newSessionS, setup)
					t.mu.Unlock()
				}
				return bits, err
			})
		}()
	}
	wg.Wait()
	return t
}

// usage is a point reading of the process's cumulative cost counters.
type usage struct {
	cpuS       float64
	allocBytes uint64
	mallocs    uint64
	gcPauseNs  uint64
	gcCycles   uint32
	maxRSSKB   int64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) only fails on a bad pointer or selector.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		cpuS:       tv(ru.Utime) + tv(ru.Stime),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcPauseNs:  ms.PauseTotalNs,
		gcCycles:   ms.NumGC,
		maxRSSKB:   ru.Maxrss,
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between the
// two nearest order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
