// remote_mlp is the client side of the private-inference deployment story:
//
//  1. fetch the server's model catalog and pick a model — each entry carries
//     its prescribed CKKS parameters and required rotation steps,
//  2. generate a key set locally and register its evaluation keys
//     (relinearization key, rotation keys) over HTTP, bound to that model,
//  3. encrypt inputs, POST the ciphertexts, decrypt the returned
//     predictions — the server never sees a plaintext or the secret key,
//  4. fire a burst of concurrent requests at one session, which the server
//     runs one job per scheduler turn on its shared worker budget,
//  5. run a second session against a different model of the same server —
//     one worker budget serves the whole catalog.
//
// With no flags it spins up an in-process hennserve with two demo models on
// a loopback port (so the demo is self-contained and can verify predictions
// against each model's plaintext reference); point -addr at a running
// hennserve to go remote.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/efficientfhe/smartpaf/internal/registry"
	"github.com/efficientfhe/smartpaf/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "", "hennserve base URL (empty: start an in-process server)")
		modelName = flag.String("model", "", "model to bind to (empty: first catalog entry)")
		seed      = flag.Int64("seed", 42, "client key seed")
		logN      = flag.Int("logn", 10, "ring degree log2 for the in-process server")
		burst     = flag.Int("burst", 8, "concurrent requests in the burst demo")
	)
	flag.Parse()
	ctx := context.Background()

	base := *addr
	local := map[string]*registry.Model{} // name -> plaintext reference
	if base == "" {
		alpha, err := registry.DemoModel(7, *logN)
		check(err)
		alpha.Name = "demo-alpha"
		beta, err := registry.DemoModel(8, *logN)
		check(err)
		beta.Name = "demo-beta"
		local[alpha.Name], local[beta.Name] = alpha, beta
		srv, err := server.New(server.Options{Workers: -1}, alpha, beta)
		check(err)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		check(err)
		go func() { _ = http.Serve(ln, srv.Handler()) }()
		base = "http://" + ln.Addr().String()
		fmt.Printf("in-process hennserve on %s serving %d models\n", base, srv.Registry().Len())
	}

	client := server.NewClient(base, nil)
	catalog, err := client.Models(ctx)
	check(err)
	if len(catalog) == 0 {
		check(fmt.Errorf("server has no models deployed"))
	}
	fmt.Println("catalog:")
	for _, info := range catalog {
		fmt.Printf("  %q: %d -> %d, %d levels, %d rotation keys required\n",
			info.Name, info.InputDim, info.OutputDim, info.Levels, len(info.Rotations))
	}
	name := *modelName
	if name == "" {
		name = catalog[0].Name
	}

	start := time.Now()
	sess, err := client.NewSessionFor(ctx, name, *seed)
	check(err)
	info := sess.Model()
	fmt.Printf("session %s... bound to %q in %s (keygen + upload)\n",
		sess.ID()[:8], info.Name, time.Since(start).Round(time.Millisecond))

	// Encrypted predictions, checked against the plaintext reference when
	// the model is local.
	rng := rand.New(rand.NewSource(3))
	agree := 0
	const trials = 3
	ref := local[info.Name]
	for trial := 0; trial < trials; trial++ {
		x := make([]float64, info.InputDim)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		start := time.Now()
		logits, err := sess.Infer(ctx, x)
		check(err)
		lat := time.Since(start)
		if ref != nil {
			plain := ref.MLP.InferPlain(x)[:info.OutputDim]
			match := argmax(logits) == argmax(plain)
			if match {
				agree++
			}
			fmt.Printf("  input %d: encrypted pred %d, plaintext pred %d, match=%v (%s)\n",
				trial, argmax(logits), argmax(plain), match, lat.Round(time.Millisecond))
		} else {
			fmt.Printf("  input %d: encrypted pred %d (%s)\n", trial, argmax(logits), lat.Round(time.Millisecond))
		}
	}
	if ref != nil {
		fmt.Printf("encrypted/plaintext agreement: %d/%d\n", agree, trials)
		if agree != trials {
			fmt.Fprintln(os.Stderr, "remote_mlp: encrypted predictions diverged from the plaintext reference")
			os.Exit(1)
		}
	}

	// Burst demo: concurrent requests against one session.
	fmt.Printf("\nfiring %d concurrent requests (one unit each on the shared worker budget)...\n", *burst)
	x := make([]float64, info.InputDim)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	var wg sync.WaitGroup
	start = time.Now()
	errs := make(chan error, *burst)
	for c := 0; c < *burst; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sess.Infer(ctx, x); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		check(err)
	}
	wall := time.Since(start)
	fmt.Printf("%d concurrent requests in %s (%.2f req/s)\n", *burst, wall.Round(time.Millisecond),
		float64(*burst)/wall.Seconds())

	// Multi-model: bind a second session to another catalog entry — the
	// same server, scheduler and worker budget serve both models.
	if len(catalog) > 1 {
		other := catalog[0].Name
		if other == info.Name {
			other = catalog[1].Name
		}
		fmt.Printf("\nbinding a second session to %q on the same server...\n", other)
		sess2, err := client.NewSessionFor(ctx, other, *seed+1)
		check(err)
		x2 := make([]float64, sess2.Model().InputDim)
		for i := range x2 {
			x2[i] = rng.Float64()*2 - 1
		}
		logits, err := sess2.Infer(ctx, x2)
		check(err)
		if ref2 := local[other]; ref2 != nil {
			plain := ref2.MLP.InferPlain(x2)[:sess2.Model().OutputDim]
			if argmax(logits) != argmax(plain) {
				fmt.Fprintln(os.Stderr, "remote_mlp: second model's encrypted prediction diverged")
				os.Exit(1)
			}
			fmt.Printf("  %q encrypted pred %d matches its plaintext reference\n", other, argmax(logits))
		} else {
			fmt.Printf("  %q encrypted pred %d\n", other, argmax(logits))
		}
	}

	// Versioned rollout (in-process only — it needs the plaintext reference
	// for both versions): supersede the bound model with a v2. The session
	// registered above keeps serving v1 until it disconnects; a fresh
	// session resolves the bare name to v2.
	if len(local) > 0 && local[info.Name] != nil {
		fmt.Printf("\nsuperseding %q with a v2 (old sessions drain on v1, new ones bind v2)...\n", info.Name)
		v2, err := registry.DemoModel(*seed+77, *logN)
		check(err)
		v2.Name = info.Name
		v2info, err := client.Supersede(ctx, v2)
		check(err)
		old := local[info.Name]
		logits, err := sess.Infer(ctx, x) // the v1 session still serves
		check(err)
		if argmax(logits) != argmax(old.MLP.InferPlain(x)[:info.OutputDim]) {
			check(fmt.Errorf("draining v1 session diverged from the v1 reference"))
		}
		sess2, err := client.NewSessionFor(ctx, info.Name, *seed+2)
		check(err)
		if got := sess2.Model().Version; got != v2info.Version {
			check(fmt.Errorf("new session bound version %d, want %d", got, v2info.Version))
		}
		logits2, err := sess2.Infer(ctx, x)
		check(err)
		if argmax(logits2) != argmax(v2.MLP.InferPlain(x)[:v2info.OutputDim]) {
			check(fmt.Errorf("v2 session diverged from the v2 reference"))
		}
		fmt.Printf("  old session answered from %s@%d, new session from %s@%d — zero dropped requests\n",
			info.Name, info.Version, v2info.Name, v2info.Version)
	}
}

func argmax(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "remote_mlp:", err)
		os.Exit(1)
	}
}
