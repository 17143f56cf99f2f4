package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/server"
	"github.com/efficientfhe/smartpaf/internal/telemetry"
)

// span is one interval of a traced request. Spans of one request share the
// server-assigned trace id; parent names the span that caused it.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

// tracedRequest is everything recorded about one request of the traced pass.
type tracedRequest struct {
	TraceID string                    `json:"trace_id"`
	Client  int                       `json:"client"`
	Spans   []span                    `json:"spans"`
	Stages  []telemetry.StageSnapshot `json:"stages,omitempty"`
}

func (r *tracedRequest) dur(name string) float64 {
	for _, s := range r.Spans {
		if s.Name == name {
			return float64(s.DurUs) / 1e3
		}
	}
	return 0
}

// clientCrypto is a session's client-side key material, regenerated from the
// session's key seed: Session.Infer keeps its own private, and the traced
// pass needs a span boundary between encryption, the round trip and
// decryption. Key generation is deterministic, so these match the keys the
// session registered.
type clientCrypto struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
}

func newClientCrypto(info *server.ModelInfo, seed int64) (*clientCrypto, error) {
	var lit ckks.ParametersLiteral
	if err := lit.UnmarshalBinary(info.Params); err != nil {
		return nil, err
	}
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return nil, err
	}
	kg := ckks.NewKeyGenerator(params, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	return &clientCrypto{
		params: params,
		enc:    ckks.NewEncoder(params),
		encr:   ckks.NewEncryptor(params, pk, seed^0x7e57),
		decr:   ckks.NewDecryptor(params, sk),
	}, nil
}

// tracer records the traced pass's spans in memory.
type tracer struct {
	epoch  time.Time
	client *server.Client
	crypto map[*server.Session]*clientCrypto

	mu       sync.Mutex
	requests []*tracedRequest
}

// infer is Session.Infer with a span around each client-side step, joined by
// trace id to the spans the server recorded for the same request.
func (t *tracer) infer(ctx context.Context, client int, sess *server.Session, x []float64) ([]float64, error) {
	cc := t.crypto[sess]
	info := sess.Model()
	t0 := time.Now()
	vec := make([]float64, cc.params.Slots())
	copy(vec, x)
	pt, err := cc.enc.EncodeReals(vec, cc.params.MaxLevel(), cc.params.DefaultScale())
	if err != nil {
		return nil, err
	}
	ct := cc.encr.Encrypt(pt)
	t1 := time.Now()
	out, id, err := sess.InferCiphertextTraced(ctx, ct)
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	logits := cc.enc.DecodeReals(cc.decr.Decrypt(out))[:info.OutputDim]
	t3 := time.Now()

	// The server files a trace just after it writes the response, so the
	// first fetch can find it missing.
	var snap *telemetry.TraceSnapshot
	for try := 0; ; try++ {
		if snap, err = t.client.Trace(ctx, id); err == nil {
			break
		}
		if try == 50 || ctx.Err() != nil {
			return nil, fmt.Errorf("fetching trace %s: %w", id, err)
		}
		time.Sleep(time.Millisecond)
	}
	rel := func(at time.Time) int64 { return at.Sub(t.epoch).Microseconds() }
	req := &tracedRequest{TraceID: id, Client: client, Stages: snap.Stages, Spans: []span{
		{Name: "client.infer", StartUs: rel(t0), DurUs: t3.Sub(t0).Microseconds()},
		{Name: "client.encode_encrypt", Parent: "client.infer", StartUs: rel(t0), DurUs: t1.Sub(t0).Microseconds()},
		{Name: "client.http_roundtrip", Parent: "client.infer", StartUs: rel(t1), DurUs: t2.Sub(t1).Microseconds()},
		{Name: "client.decrypt_decode", Parent: "client.infer", StartUs: rel(t2), DurUs: t3.Sub(t2).Microseconds()},
	}}
	for _, s := range snap.Spans {
		parent := "server.request"
		if s.Name == "request" {
			parent = "client.http_roundtrip"
		}
		req.Spans = append(req.Spans, span{
			Name: "server." + s.Name, Parent: parent,
			StartUs: rel(snap.Start) + s.StartUs, DurUs: s.DurUs,
		})
	}
	t.mu.Lock()
	t.requests = append(t.requests, req)
	t.mu.Unlock()
	return logits, nil
}

// traceFile is what trace_<workload>.json holds.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Requests []*tracedRequest `json:"requests"`
}

// runTraced is the traced pass and the layer pass: a short untraced
// reference window, a window with client spans joined to the server's, a
// registration probe, then — server closed — direct timed calls into each
// layer. Every per-layer metric comes from here.
func runTraced(ctx context.Context, w workload, cfg config) (*outcome, error) {
	baseline := runtime.NumGoroutine()
	in, err := generate(w, cfg.seed, cfg.logN)
	if err != nil {
		return nil, err
	}
	st, err := setUp(ctx, w, in)
	if err != nil {
		return nil, err
	}
	torn := false
	defer func() {
		if !torn {
			_ = st.tearDown()
		}
	}()
	tr := &tracer{epoch: time.Now(), client: st.client, crypto: map[*server.Session]*clientCrypto{}}
	for i, sess := range st.sessions {
		if tr.crypto[sess], err = newClientCrypto(sess.Model(), in.keySeeds[i]); err != nil {
			return nil, err
		}
	}

	warm := window(ctx, w, in, st, seconds(cfg.warmup), plainInfer)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %w", warm.failed, warm.attempted, warm.firstErr)
	}
	ref := window(ctx, w, in, st, seconds(0.25*cfg.seconds), plainInfer)
	before := readUsage()
	t := window(ctx, w, in, st, seconds(0.35*cfg.seconds), tr.infer)
	after := readUsage()
	out := &outcome{attempted: ref.attempted + t.attempted, failed: ref.failed + t.failed, firstErr: ref.firstErr}
	if out.firstErr == nil {
		out.firstErr = t.firstErr
	}
	if len(tr.requests) == 0 || ref.rate == 0 {
		return nil, fmt.Errorf("no verified inference in the windows (%d attempted): %v", out.attempted, out.firstErr)
	}
	stats, err := st.client.Stats(ctx)
	if err != nil {
		return nil, err
	}

	// Registration probe: what NewSession and Close cost the server when
	// nothing else runs.
	var closeMs []float64
	sessSetupS := st.sessionSetupS
	_, postMs := st.tr.registrations()
	posts := len(postMs)
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		sess, err := st.client.NewSession(ctx, in.churnSeed-int64(1+i))
		if err != nil {
			return nil, fmt.Errorf("registration probe: %w", err)
		}
		sessSetupS = append(sessSetupS, time.Since(t0).Seconds())
		t0 = time.Now()
		if err := sess.Close(ctx); err != nil {
			return nil, fmt.Errorf("registration probe: %w", err)
		}
		closeMs = append(closeMs, msSince(t0))
	}
	_, postMs = st.tr.registrations()
	postMs = postMs[posts:]

	torn = true
	if err := st.tearDown(); err != nil {
		return nil, err
	}
	if err := waitGoroutines(baseline); err != nil {
		return nil, err
	}

	var inferMs, queueMs, dispatchMs, unitMs, httpMs, cryptoMs []float64
	var rootUs, coveredUs float64
	for _, r := range tr.requests {
		// The server's queue_wait span ends when the dispatcher claims the
		// job and its dispatch span covers the pool rendezvous; a request
		// waits for a worker through both.
		d, u := r.dur("server.dispatch"), r.dur("server.unit")
		q := r.dur("server.queue_wait") + d
		e, rt, dd := r.dur("client.encode_encrypt"), r.dur("client.http_roundtrip"), r.dur("client.decrypt_decode")
		inferMs = append(inferMs, r.dur("client.infer"))
		queueMs = append(queueMs, q)
		dispatchMs = append(dispatchMs, d)
		unitMs = append(unitMs, u)
		httpMs = append(httpMs, rt-q-u)
		cryptoMs = append(cryptoMs, e+dd)
		rootUs += r.dur("client.infer")
		coveredUs += e + rt + dd
	}
	v, err := layerPass(w, in, cfg, seconds(0.4*cfg.seconds))
	if err != nil {
		return nil, err
	}
	v["server.infer_p50_ms"] = median(inferMs)
	// The tail is read over both windows: the traced one alone is too short.
	v["server.infer_p95_ms"] = quantile(append(ref.latMs, t.latMs...), 0.95)
	v["server.queue_wait_p50_ms"] = median(queueMs)
	v["server.dispatch_p50_ms"] = median(dispatchMs)
	v["server.unit_p50_ms"] = median(unitMs)
	v["server.http_overhead_p50_ms"] = median(httpMs)
	v["server.client_crypto_p50_ms"] = median(cryptoMs)
	if w.churn {
		// Registration beside a neighbour's inference is what this workload
		// is for: its figure comes from the windows, not from the idle server.
		sessSetupS = append(ref.newSessionS, t.newSessionS...)
	}
	v["server.session_setup_p50_s"] = median(sessSetupS)
	v["server.register_post_p50_ms"] = median(postMs)
	v["server.session_close_ms"] = median(closeMs)
	v["server.peak_in_flight"] = float64(stats.PeakInFlight)
	v["server.units_run"] = float64(stats.UnitsRun)
	v["server.units_aborted"] = float64(stats.UnitsAborted)
	v["server.peak_rss_mb"] = float64(after.maxRSSKB) * 1024 / 1e6
	v["server.gc_pause_ms"] = float64(after.gcPauseNs-before.gcPauseNs) / 1e6
	v["server.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	// Self time of the root span is what no child span covers.
	v["telemetry.span_coverage"] = coveredUs / rootUs
	v["telemetry.trace_overhead_ratio"] = t.rate / ref.rate
	out.values = v

	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		data, err := json.Marshal(traceFile{Workload: w.name, Seed: cfg.seed, Requests: tr.requests})
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(cfg.outDir, "trace_"+w.name+".json"), data, 0o644); err != nil {
			return nil, err
		}
	}
	return out, nil
}
