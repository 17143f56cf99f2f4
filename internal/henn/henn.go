// Package henn runs neural-network inference directly on CKKS ciphertexts:
// plaintext-weight linear layers via the Halevi–Shoup diagonal method in
// its baby-step/giant-step form (rotations + plaintext multiplications,
// bsgs.go) and PAF activations via internal/hepoly, with Static Scaling
// folded in for free. Together with the SMART-PAF training pipeline this
// closes the loop of Fig. 2: a model whose non-polynomial operators were
// replaced and fine-tuned in the clear is evaluated end-to-end under
// encryption.
package henn

import (
	"fmt"
	"sync/atomic"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/hepoly"
	"github.com/efficientfhe/smartpaf/internal/nn"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/telemetry"
)

// Linear is a plaintext-weight fully connected layer applied to an encrypted
// activation vector laid out in the first In slots. Weights are static once
// the layer is built (deployment freezes them), so the layer keeps one plan:
// its diagonals and bias encoded for the encoder, input level and input
// scale it last ran under. The serving door admits one input shape, so a
// served layer encodes once; an input of another shape, or another encoder,
// compiles a plan that replaces it.
type Linear struct {
	In, Out int
	W       [][]float64 // W[i][j]: weight from input j to output i
	B       []float64

	plan atomic.Pointer[linearPlan]
}

// Activation is a deployed PAF activation: out = Scale·relu_p(x/Scale).
type Activation struct {
	PAF   *paf.Composite
	Scale float64
}

// MLP is a sequence of Linear and Activation layers.
type MLP struct {
	Layers []any
}

// FromModel extracts an encrypted-inference MLP from a trained nn.Model.
// The model must be MLP-shaped (Flatten/Linear/PAF-activation layers only)
// and deployed (static scaling); anything else is an error.
func FromModel(m *nn.Model) (*MLP, error) {
	if err := m.CheckFHECompatible(); err != nil {
		return nil, fmt.Errorf("henn: %w", err)
	}
	out := &MLP{}
	for _, s := range m.Slots() {
		if s.Kind != nn.SlotReLU {
			return nil, fmt.Errorf("henn: slot %d is %s; only MLPs (ReLU slots) are supported", s.Index, s.Kind)
		}
	}
	params := m.Params()
	slotIdx := 0
	slots := m.Slots()
	// Walk parameters: nn.Linear contributes (w, b) pairs in order; PAF
	// activations contribute their stage params which we skip here (the
	// composite is taken from the slot).
	for i := 0; i < len(params); i++ {
		p := params[i]
		if p.Group != nn.GroupLinear {
			continue
		}
		// Expect weight then bias.
		if i+1 >= len(params) || params[i+1].Group != nn.GroupLinear {
			return nil, fmt.Errorf("henn: unpaired linear parameter %q", p.Name)
		}
		w, b := p, params[i+1]
		i++
		if len(b.Data) == 0 {
			return nil, fmt.Errorf("henn: linear parameter %q has an empty bias", w.Name)
		}
		if len(w.Data)%len(b.Data) != 0 {
			return nil, fmt.Errorf("henn: linear parameter %q has %d weights, not divisible by %d bias entries",
				w.Name, len(w.Data), len(b.Data))
		}
		in := len(w.Data) / len(b.Data)
		outDim := len(b.Data)
		lin := &Linear{In: in, Out: outDim, B: append([]float64(nil), b.Data...)}
		lin.W = make([][]float64, outDim)
		for r := 0; r < outDim; r++ {
			lin.W[r] = make([]float64, in)
			for c := 0; c < in; c++ {
				// nn.Linear stores W[in][out] row-major.
				lin.W[r][c] = w.Data[c*outDim+r]
			}
		}
		out.Layers = append(out.Layers, lin)
		// One activation follows each hidden linear layer.
		if slotIdx < len(slots) {
			act := slots[slotIdx].PAFLayer()
			out.Layers = append(out.Layers, &Activation{PAF: act.PAF.Clone(), Scale: act.Scale})
			slotIdx++
		}
	}
	if slotIdx != len(slots) {
		return nil, fmt.Errorf("henn: %d activations matched for %d slots", slotIdx, len(slots))
	}
	return out, nil
}

// LevelsRequired returns the multiplicative levels one inference consumes:
// one per linear layer (diagonal plaintext product) plus
// hepoly.RequiredLevels per activation.
func (mlp *MLP) LevelsRequired() int {
	total := 0
	for _, l := range mlp.Layers {
		switch v := l.(type) {
		case *Linear:
			total++
		case *Activation:
			total += hepoly.RequiredLevels(v.PAF)
		}
	}
	return total
}

// Context bundles the machinery for encrypted inference.
type Context struct {
	Params *ckks.Parameters
	Enc    *ckks.Encoder
	Eval   *ckks.Evaluator // must hold relinearization + rotation keys
	HE     *hepoly.Evaluator

	// trace receives per-stage timing for one request; nil (the default)
	// disables recording at the cost of a pointer test per stage. Set via
	// WithTrace, never mutated on a shared Context.
	trace *telemetry.Trace
}

// NewContext wires a context from an evaluator with keys attached.
func NewContext(params *ckks.Parameters, enc *ckks.Encoder, eval *ckks.Evaluator) *Context {
	return &Context{Params: params, Enc: enc, Eval: eval, HE: hepoly.NewEvaluator(eval)}
}

// WithTrace returns a Context recording per-stage timings into tr. A
// session's Context is shared by every in-flight unit, so the trace rides
// on a per-request shallow copy — all heavy state (parameters, keys, layer
// caches) stays shared; only the trace pointer differs. A nil tr returns
// the receiver unchanged.
func (ctx *Context) WithTrace(tr *telemetry.Trace) *Context {
	if tr == nil {
		return ctx
	}
	c := *ctx
	c.trace = tr
	return &c
}

// ApplyActivation computes Scale·relu_p(x/Scale): one constant level for the
// input normalization, then the folded-scale PAF ReLU. Every intermediate,
// the normalized input included, goes back to the ring pool; ct is only
// read.
func (ctx *Context) ApplyActivation(a *Activation, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	tr := ctx.trace
	mark := tr.StageStart()
	u, err := ctx.Eval.MulConstTargetScale(ct, 1/a.Scale, ct.Scale)
	tr.StageEnd("mul_const", mark)
	if err != nil {
		return nil, err
	}
	mark = tr.StageStart()
	out, err := ctx.HE.ReLUScaled(a.PAF, u, a.Scale)
	tr.StageEnd("paf_eval", mark)
	ctx.Eval.Recycle(u)
	return out, err
}

// Infer runs the full MLP on an encrypted input vector. The evaluator must
// hold rotation keys for mlp.ServingRotations. Each layer's output goes back
// to the ring pool once the next layer has consumed it; ct is only read.
func (ctx *Context) Infer(mlp *MLP, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	if need := mlp.LevelsRequired(); ct.Level < need {
		return nil, fmt.Errorf("henn: ciphertext at level %d, model needs %d", ct.Level, need)
	}
	cur := ct
	for i, l := range mlp.Layers {
		var next *ckks.Ciphertext
		var err error
		switch v := l.(type) {
		case *Linear:
			next, err = ctx.ApplyLinear(v, cur)
		case *Activation:
			next, err = ctx.ApplyActivation(v, cur)
		default:
			err = fmt.Errorf("henn: unknown layer type %T", l)
		}
		if cur != ct {
			ctx.Eval.Recycle(cur)
		}
		if err != nil {
			return nil, fmt.Errorf("henn: layer %d: %w", i, err)
		}
		cur = next
	}
	return cur, nil
}

// Unit is one independent encrypted inference: a ciphertext bound to the
// Context holding the keys that can evaluate it. Schedulers dispatch Units
// from many sessions onto one shared worker budget — the Context travels
// with the item, so one set of workers serves any number of key sets, and
// each unit fails on its own.
type Unit struct {
	Ctx *Context
	MLP *MLP
	CT  *ckks.Ciphertext

	// Trace, when non-nil, receives the unit's per-stage timing breakdown
	// (rotations, key switches, rescales, encodes, PAF evaluation). The
	// scheduler sets it from the request's trace.
	Trace *telemetry.Trace
}

// Run executes the unit.
func (u Unit) Run() (*ckks.Ciphertext, error) {
	return u.Ctx.WithTrace(u.Trace).Infer(u.MLP, u.CT)
}

// InferPlain evaluates the same MLP on a plaintext vector (the reference for
// precision tests and the demo).
func (mlp *MLP) InferPlain(x []float64) []float64 {
	cur := append([]float64(nil), x...)
	for _, l := range mlp.Layers {
		switch v := l.(type) {
		case *Linear:
			next := make([]float64, v.Out)
			for i := 0; i < v.Out; i++ {
				// A nil bias is a valid deployed layer (addBias skips it on
				// the encrypted path); the reference must agree.
				s := 0.0
				if v.B != nil {
					s = v.B[i]
				}
				for j := 0; j < v.In && j < len(cur); j++ {
					s += v.W[i][j] * cur[j]
				}
				next[i] = s
			}
			cur = next
		case *Activation:
			for i := range cur {
				cur[i] = v.Scale * v.PAF.ReLU(cur[i]/v.Scale)
			}
		}
	}
	return cur
}
