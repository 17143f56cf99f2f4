package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/registry"
)

// actScale is the Static-Scale constant of every workload's activation: the
// deployed PAF computes Scale·relu_p(x/Scale), which is only meaningful
// while plaintext pre-activations stay inside (−Scale, Scale).
const actScale = 4.0

// inputPool is how many distinct request inputs each client cycles through.
const inputPool = 32

// workload is one traffic mix. The four differ in which layer does the work
// (see README.md); everything else — ring degree, policy, client count — is
// held equal so a difference between two workloads is a difference in the
// layer they stress.
type workload struct {
	name string
	why  string
	// in→hidden·form·hidden→out is the served MLP.
	in, hidden, out int
	form            string
	// sessions is how many long-lived sessions (distinct key sets) the
	// set-up registers; each gets inferClients/sessions closed-loop clients.
	sessions     int
	inferClients int
	// churn adds one client looping NewSession → 1 Infer → Close.
	churn bool
	// workers is server.Options.Workers (-1: all cores).
	workers int
	// validity names the trace stage family that must dominate a unit for
	// the workload to measure what it claims ("rotation", "paf" or "").
	validity string
}

var workloads = []workload{
	{
		name: "linear_heavy",
		why:  "cheapest PAF (f1_g2) behind wide BSGS linear layers: rotations and key switches dominate the unit",
		in:   128, hidden: 128, out: 4, form: paf.FormF1G2,
		sessions: 1, inferClients: 2, workers: -1, validity: "rotation",
	},
	{
		name: "paf_heavy",
		why:  "27-degree alpha10 PAF behind 8-wide layers: relinearise/rescale/PAF evaluation dominate, rotations do little",
		in:   8, hidden: 8, out: 4, form: paf.FormAlpha10,
		sessions: 1, inferClients: 2, workers: -1, validity: "paf",
	},
	{
		name: "session_churn",
		why:  "linear_heavy's model with one client re-registering in a loop beside one inferring: key upload, decode and GC beside reads",
		in:   128, hidden: 128, out: 4, form: paf.FormF1G2,
		sessions: 1, inferClients: 1, churn: true, workers: -1,
	},
	{
		name: "shared_budget",
		why:  "linear_heavy's model, two key sets on a one-unit budget: queue wait, cross-session turns and ring's un-gated inner fan",
		in:   128, hidden: 128, out: 4, form: paf.FormF1G2,
		sessions: 2, inferClients: 2, workers: 1,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is what one run feeds the server: the model and, per client, a pool
// of request vectors with their plaintext reference outputs. All of it is a
// function of (workload, seed, logN) alone.
type inputs struct {
	model *registry.Model
	// x[c][i] is client c's i-th request; want[c][i] its InferPlain logits.
	x, want [][][]float64
	// keySeeds[s] seeds long-lived session s's key generation; churnSeed is
	// the base for the churning client's successive key sets.
	keySeeds  []int64
	churnSeed int64
}

// newLinear draws a dense layer whose rows satisfy Σ|w|+|b| = bound, so for
// any input in [−1,1]^in every output stays inside [−bound, bound].
func newLinear(rng *rand.Rand, in, out int, bound float64) *henn.Linear {
	l := &henn.Linear{In: in, Out: out, B: make([]float64, out), W: make([][]float64, out)}
	for i := range l.W {
		l.W[i] = make([]float64, in)
		sum := 0.0
		for j := range l.W[i] {
			l.W[i][j] = rng.NormFloat64()
			sum += math.Abs(l.W[i][j])
		}
		l.B[i] = rng.NormFloat64()
		sum += math.Abs(l.B[i])
		for j := range l.W[i] {
			l.W[i][j] *= bound / sum
		}
		l.B[i] *= bound / sum
	}
	return l
}

// generate builds the run's inputs from the seed. The hidden layer is sized
// to 0.9·Scale so the Static-Scale condition holds for every input in the
// domain; it is asserted on the generated pool all the same.
func generate(w workload, seed int64, logN int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	form, err := paf.New(w.form)
	if err != nil {
		return nil, err
	}
	first := newLinear(rng, w.in, w.hidden, 0.9*actScale)
	mlp := &henn.MLP{Layers: []any{
		first,
		&henn.Activation{PAF: form, Scale: actScale},
		newLinear(rng, w.hidden, w.out, 1),
	}}
	lit, err := registry.ParamsForMLP(mlp, logN)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		model: &registry.Model{Name: w.name, MLP: mlp, Params: lit, InputDim: w.in, OutputDim: w.out},
	}
	clients := w.inferClients
	if w.churn {
		clients++
	}
	for c := 0; c < clients; c++ {
		xs := make([][]float64, inputPool)
		wants := make([][]float64, inputPool)
		for i := range xs {
			xs[i] = make([]float64, w.in)
			for j := range xs[i] {
				xs[i][j] = 2*rng.Float64() - 1
			}
			pre := (&henn.MLP{Layers: []any{first}}).InferPlain(xs[i])
			for _, z := range pre {
				if math.Abs(z) >= actScale {
					return nil, fmt.Errorf("%s: pre-activation %.3f leaves (−%g, %g): Static-Scale condition violated", w.name, z, actScale, actScale)
				}
			}
			wants[i] = mlp.InferPlain(xs[i])
		}
		in.x = append(in.x, xs)
		in.want = append(in.want, wants)
	}
	for s := 0; s < w.sessions; s++ {
		in.keySeeds = append(in.keySeeds, rng.Int63())
	}
	in.churnSeed = rng.Int63()
	return in, nil
}
