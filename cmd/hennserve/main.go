// Command hennserve is the encrypted-inference serving front end: it loads
// (or trains) one or more deployed MLPs into a model registry and serves the
// internal/server HTTP protocol — clients pick a model from the catalog,
// register a session with their public evaluation keys, POST marshaled CKKS
// ciphertexts and decrypt the returned predictions locally. Models can also
// be hot-deployed (POST /v1/models) and retired (DELETE /v1/models/{name})
// while the server runs.
//
// Usage:
//
//	hennserve                               # the synthetic demo model on :8555, 128-bit-compliant ring
//	hennserve -train                        # a SMART-PAF-trained MLP
//	hennserve -demo alpha -demo beta:13     # several demo models (name[:seed])
//	hennserve -train -demo alpha -state ./deployed    # persist alpha@1.hemodel, serve
//	hennserve -state ./deployed             # serve that directory again
//	hennserve -addr :9000 -logn 10 -workers 4         # a small demo ring, not 128-bit compliant
//	hennserve -state ./state -admin-token s3cret      # durable versioned catalog
//	hennserve -log-requests -metrics-addr 127.0.0.1:8556  # access log + pprof/metrics plane
//	hennserve -key-budget-mb 8192          # room for 13 demo sessions' keys (654 MB each)
//
// The -state directory is the one place bundles live on disk: every deployed
// bundle (startup and hot-deployed alike) persists there as
// <name>@<version>.hemodel and a restarted server reloads the exact catalog —
// versions included — before serving; a first start with an empty state
// directory and no model flags begins with an empty catalog and has models
// hot-deployed over HTTP (POSTing a state file is a hot deploy). With
// -admin-token, the deploy/retire endpoints demand "Authorization: Bearer
// <token>". A model upgrade is POST /v1/models?supersede=true: the new
// version serves new sessions while the old one drains behind it.
//
// SIGINT/SIGTERM drain gracefully: the HTTP listener stops accepting, in-
// flight inferences finish, then the scheduler and its workers shut down.
// See README.md for the protocol and a client walkthrough.
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/data"
	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/nn"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/registry"
	"github.com/efficientfhe/smartpaf/internal/server"
	"github.com/efficientfhe/smartpaf/internal/smartpaf"
)

func main() {
	var (
		addr      = flag.String("addr", ":8555", "listen address")
		logN      = flag.Int("logn", 0, "ring degree log2 for startup models; 0 selects each model's smallest 128-bit-compliant ring")
		seed      = flag.Int64("seed", 7, "default model seed")
		train     = flag.Bool("train", false, "add a SMART-PAF-trained MLP to the catalog")
		workers   = flag.Int("workers", -1, "server-wide inference worker budget shared by all sessions and models (0/1 one worker, <0 all cores)")
		ttl       = flag.Duration("ttl", 0, "idle-session eviction TTL (0 keeps the 30m default, <0 disables eviction)")
		queue     = flag.Int("queue", 0, "per-session request queue depth (0 keeps the 1024 default)")
		state     = flag.String("state", "", "state directory: every deployed bundle persists as <name>@<version>.hemodel and the catalog reloads on restart")
		adminTok  = flag.String("admin-token", "", "bearer token required on the admin endpoints (POST/DELETE /v1/models*); empty leaves them open")
		budgetMB  = flag.Int64("key-budget-mb", server.DefaultKeyBudget>>20, "MiB of expanded evaluation keys all sessions may hold together; a registration past it is refused 429 before its keys are read (<= 0 keeps the default)")
		logReqs   = flag.Bool("log-requests", false, "emit one structured access-log line per HTTP request (method, path, session, model, status, bytes, duration, trace id)")
		debugAddr = flag.String("metrics-addr", "", "separate debug listen address serving /metrics and /debug/pprof/* (e.g. 127.0.0.1:8556); empty disables — /metrics stays on the API listener either way")
	)
	var demos []string
	flag.Func("demo", "add a synthetic demo model, name[:seed] (repeatable)", func(v string) error {
		demos = append(demos, v)
		return nil
	})
	flag.Parse()

	models, err := buildModels(demos, *train, *seed, *logN, *state)
	if err != nil {
		fail(err)
	}
	var accessLog *slog.Logger
	if *logReqs {
		accessLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	budget := *budgetMB << 20
	if budget <= 0 {
		budget = server.DefaultKeyBudget
	}
	srv, err := server.New(server.Options{
		Workers:    *workers,
		SessionTTL: *ttl,
		QueueDepth: *queue,
		KeyBudget:  budget,
		StateDir:   *state,
		AdminToken: *adminTok,
		AccessLog:  accessLog,
	}, models...)
	if err != nil {
		fail(err)
	}
	for _, d := range srv.Registry().List() {
		m, p := d.Model(), d.Params()
		compliance := "128-bit compliant"
		if !p.Compliant() {
			compliance = "NOT 128-bit compliant"
		}
		keys := int64(p.EvaluationKeysSize(len(d.Rotations())))
		fmt.Printf("hennserve: model %s (%d -> %d, %d levels), N=%d, %d rotation keys per session, logQP %.0f bits against %d: %s; %.1f MB of keys per session, %d sessions in the %d MiB key budget\n",
			d.Ref(), m.InputDim, m.OutputDim, d.Levels(), p.N(), len(d.Rotations()), p.TotalLogQP(), ckks.MaxLogQP(p.LogN()), compliance,
			float64(keys)/1e6, budget/keys, budget>>20)
	}
	fmt.Printf("hennserve: %d model version(s), fair scheduling over a %d-worker shared budget\n",
		srv.Registry().Len(), srv.Stats().Workers)
	if *state != "" {
		fmt.Printf("hennserve: catalog persists under %s (reloaded on restart)\n", *state)
	}
	if *adminTok != "" {
		fmt.Println("hennserve: admin endpoints require the bearer token")
	}
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           debugMux(srv),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "hennserve: debug listener:", err)
			}
		}()
		fmt.Printf("hennserve: telemetry on %s (/metrics, /debug/pprof/)\n", *debugAddr)
	}
	fmt.Printf("hennserve: listening on %s\n", *addr)
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Registration bodies are large (rotation-key sets), so the read
		// timeout is generous — but bounded, so slow-POST connections
		// cannot pile up indefinitely.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// Serve until SIGINT/SIGTERM, then drain: Shutdown stops the listener
	// and waits for in-flight HTTP exchanges (inference responses included),
	// then Server.Close stops the scheduler and its workers.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		if debugSrv != nil {
			_ = debugSrv.Close()
		}
		srv.Close()
		fail(err)
	case <-ctx.Done():
		stop()
		fmt.Println("\nhennserve: draining (in-flight inferences finish; press Ctrl-C again to force)")
		shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			fmt.Fprintln(os.Stderr, "hennserve: shutdown:", err)
		}
		if debugSrv != nil {
			_ = debugSrv.Close()
		}
		srv.Close()
		fmt.Println("hennserve: bye")
	}
}

// debugMux is the operator-only telemetry plane: the Prometheus exposition
// plus the pprof profile handlers, mounted explicitly so nothing rides the
// DefaultServeMux onto a public listener.
func debugMux(srv *server.Server) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", srv.MetricsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// buildModels assembles the startup catalog: every -demo occurrence and the
// -train model. With no model flags at all it falls back to the single
// synthetic demo model — unless a -state directory is configured, whose
// reloaded catalog then stands on its own (a restarted server must come back
// with exactly what it persisted, not a demo extra).
func buildModels(demos []string, train bool, seed int64, logN int, stateDir string) ([]*registry.Model, error) {
	var models []*registry.Model
	for _, spec := range demos {
		m, err := demoModel(spec, seed, logN)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	if train {
		m, err := trainedModel(seed, logN)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	if len(models) == 0 && stateDir == "" {
		m, err := registry.DemoModel(seed, logN)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	return models, nil
}

// demoModel parses one -demo spec ("name" or "name:seed") into a synthetic
// model.
func demoModel(spec string, defaultSeed int64, logN int) (*registry.Model, error) {
	name, seedStr, hasSeed := strings.Cut(spec, ":")
	// Distinct default weights per name: hash the name so -demo foo -demo
	// bar get different models without an explicit :seed.
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	seed := defaultSeed + int64(h.Sum32())
	if hasSeed {
		v, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-demo %q: bad seed: %v", spec, err)
		}
		seed = v
	}
	m, err := registry.DemoModel(seed, logN)
	if err != nil {
		return nil, err
	}
	if name != "" {
		m.Name = name
	}
	return m, nil
}

// trainedModel runs the condensed private_mlp pipeline: pretrain, replace
// ReLUs with the f1∘g2 PAF, fine-tune, freeze static scaling.
func trainedModel(seed int64, logN int) (*registry.Model, error) {
	dcfg := data.Tiny()
	dcfg.Channels = 1
	dcfg.Size = 8
	dcfg.Train, dcfg.Val = 400, 100
	trainSet, valSet := data.Generate(dcfg)
	model := nn.MLP([]int{64, 24, dcfg.Classes}, seed)
	fmt.Print("hennserve: pretraining MLP... ")
	start := time.Now()
	smartpaf.Pretrain(model, trainSet, 12, 3e-3, 1)
	cfg := smartpaf.DefaultConfig(paf.FormF1G2)
	cfg.Epochs, cfg.MaxGroupsPerStep = 2, 1
	res, err := smartpaf.Run(model, trainSet, valSet, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("done in %s (accuracy %.1f%% -> %.1f%% after SS)\n",
		time.Since(start).Round(time.Second), res.OriginalAcc*100, res.FinalAccSS*100)
	mlp, err := henn.FromModel(model)
	if err != nil {
		return nil, err
	}
	lit, err := registry.ParamsForMLP(mlp, logN)
	if err != nil {
		return nil, err
	}
	return &registry.Model{
		Name:      "smartpaf-mlp-64x24",
		MLP:       mlp,
		Params:    lit,
		InputDim:  64,
		OutputDim: dcfg.Classes,
	}, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hennserve:", err)
	os.Exit(1)
}
