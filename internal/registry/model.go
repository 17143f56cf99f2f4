// Package registry is the model-lifecycle subsystem of the serving stack: it
// maps model names to compiled serving stacks — a frozen henn.MLP, the
// prescribed CKKS parameters, the rotation-step set sessions must cover, and
// per-model counters — with concurrency-safe deploy, supersede, list and
// retire. Counting bound sessions makes both graceful: a retired model
// leaves the catalog at once (new sessions cannot bind) and the server
// closes its bound sessions (their queued jobs fail); a superseded version
// refuses new sessions and leaves the catalog when its last session releases
// it. Nothing frees a stack by hand: the garbage collector takes it, caches
// included, once the last unit running on it answers.
//
// The deployable artifact itself has a binary wire format (Model.Marshal/
// UnmarshalBinary, framing henn.MLP's own wire format) so models can be
// hot-deployed over HTTP or loaded from disk.
package registry

import (
	"fmt"
	"math/rand"
	"regexp"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/paf"
)

// Model bundles everything needed to serve one deployed network: the frozen
// henn MLP and the CKKS parameter literal sessions must use. It is the unit
// of deployment — what a registry compiles into a serving stack and what the
// wire format in marshal.go carries.
type Model struct {
	Name      string
	MLP       *henn.MLP
	Params    ckks.ParametersLiteral
	InputDim  int
	OutputDim int
}

// nameRE bounds model names to URL-path-safe identifiers: names appear in
// /v1/models/{name} routes and in state-directory file names.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// Validate checks the model is a deployable artifact: a named, non-empty MLP
// whose declared dimensions fit its linear envelope.
func (m *Model) Validate() error {
	if !nameRE.MatchString(m.Name) {
		return fmt.Errorf("registry: model name %q is not a valid identifier ([A-Za-z0-9._-], leading alphanumeric, max 128)", m.Name)
	}
	if m.MLP == nil || len(m.MLP.Layers) == 0 {
		return fmt.Errorf("registry: model %q has no layers", m.Name)
	}
	in, out, err := Dims(m.MLP)
	if err != nil {
		return fmt.Errorf("registry: model %q: %w", m.Name, err)
	}
	if m.InputDim <= 0 || m.InputDim > in {
		return fmt.Errorf("registry: model %q declares input dim %d, envelope takes %d", m.Name, m.InputDim, in)
	}
	if m.OutputDim <= 0 || m.OutputDim > out {
		return fmt.Errorf("registry: model %q declares output dim %d, envelope yields %d", m.Name, m.OutputDim, out)
	}
	return nil
}

// Dims returns the (input, output) dimensions of an MLP's linear envelope.
func Dims(mlp *henn.MLP) (in, out int, err error) {
	for _, l := range mlp.Layers {
		lin, ok := l.(*henn.Linear)
		if !ok {
			continue
		}
		if in == 0 {
			in = lin.In
		}
		out = lin.Out
	}
	if in == 0 || out == 0 {
		return 0, 0, fmt.Errorf("model has no linear layers")
	}
	return in, out, nil
}

// ParamsForMLP sizes a parameter literal for the model's inference depth:
// ckks.ChainLiteral's chain of exactly LevelsRequired rescaling levels, on the
// given ring or, with logN 0, on the smallest 128-bit-compliant ring that
// holds it and the widest layer. The budget is exact by construction —
// inference lands on level 0 — so any drift between the model's declared
// depth and what the evaluator consumes surfaces as a level-exhaustion error
// instead of being masked by slack.
func ParamsForMLP(mlp *henn.MLP, logN int) (ckks.ParametersLiteral, error) {
	if _, _, err := Dims(mlp); err != nil {
		return ckks.ParametersLiteral{}, fmt.Errorf("registry: %w", err)
	}
	// Every layer (not just the envelope) must fit the slot vector.
	width := 0
	for _, l := range mlp.Layers {
		if lin, ok := l.(*henn.Linear); ok {
			width = max(width, lin.In, lin.Out)
		}
	}
	lit, err := ckks.ChainLiteral(logN, mlp.LevelsRequired(), width)
	if err != nil {
		return lit, fmt.Errorf("registry: %w", err)
	}
	return lit, nil
}

// DemoModel builds a small frozen MLP (16 -> 8 -> 4 with an f1∘g2 PAF
// activation) with seeded random weights, sized for the given ring degree (0
// selects a 128-bit-compliant one).
// It stands in for a SMART-PAF-trained network in demos, load experiments
// and tests; cmd/hennserve can serve a trained model instead.
func DemoModel(seed int64, logN int) (*Model, error) {
	rng := rand.New(rand.NewSource(seed))
	newLinear := func(in, out int) *henn.Linear {
		l := &henn.Linear{In: in, Out: out, B: make([]float64, out), W: make([][]float64, out)}
		for i := range l.W {
			l.W[i] = make([]float64, in)
			for j := range l.W[i] {
				l.W[i][j] = rng.NormFloat64() * 0.4
			}
			l.B[i] = rng.NormFloat64() * 0.1
		}
		return l
	}
	mlp := &henn.MLP{Layers: []any{
		newLinear(16, 8),
		&henn.Activation{PAF: paf.MustNew(paf.FormF1G2), Scale: 4},
		newLinear(8, 4),
	}}
	lit, err := ParamsForMLP(mlp, logN)
	if err != nil {
		return nil, err
	}
	return &Model{Name: "demo-mlp-16x8x4", MLP: mlp, Params: lit, InputDim: 16, OutputDim: 4}, nil
}
