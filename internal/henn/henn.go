// Package henn runs neural-network inference directly on CKKS ciphertexts:
// plaintext-weight linear layers via the Halevi–Shoup diagonal method
// (rotations + plaintext multiplications) and PAF activations via
// internal/hepoly, with Static Scaling folded in for free. Together with the
// SMART-PAF training pipeline this closes the loop of Fig. 2: a model whose
// non-polynomial operators were replaced and fine-tuned in the clear is
// evaluated end-to-end under encryption.
package henn

import (
	"fmt"
	"sort"
	"sync"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/hepoly"
	"github.com/efficientfhe/smartpaf/internal/nn"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/telemetry"
)

// Linear is a plaintext-weight fully connected layer applied to an encrypted
// activation vector laid out in the first In slots. Weights are static once
// the layer is built (deployment freezes them), so the diagonal decomposition
// is computed once per slot count and cached — the serving hot path must not
// re-derive an O(slots·Out) structure on every inference.
type Linear struct {
	In, Out int
	W       [][]float64 // W[i][j]: weight from input j to output i
	B       []float64

	planMu sync.Mutex
	plan   *diagPlan //hennlint:guarded-by(planMu)

	ptMu sync.RWMutex
	pts  map[ptKey]*ckks.Plaintext //hennlint:guarded-by(ptMu)
}

// ptKey identifies one cached encoding of a static slot vector. The encoder
// pointer scopes the cache to a parameter set, so one Linear reused under
// different parameters (tests do this) cannot alias encodings.
type ptKey struct {
	enc   *ckks.Encoder
	d     int  // diagonal index; -1 is the bias vector
	bsgs  bool // the BSGS path stores giant-step-rotated diagonals
	level int
	scale float64
}

// encodedPlaintext memoizes the encoding of a static slot vector. Plaintexts
// are read-only to the evaluator, so every request and session can share
// them; this takes per-diagonal encoding off the serving hot path (vec is
// only called on a miss).
func (l *Linear) encodedPlaintext(key ptKey, vec func() []float64) (*ckks.Plaintext, error) {
	l.ptMu.RLock()
	pt, ok := l.pts[key]
	l.ptMu.RUnlock()
	if ok {
		return pt, nil
	}
	pt, err := key.enc.EncodeReals(vec(), key.level, key.scale)
	if err != nil {
		return nil, err
	}
	l.ptMu.Lock()
	if l.pts == nil {
		l.pts = map[ptKey]*ckks.Plaintext{}
	}
	// Bound level/scale churn by evicting single arbitrary entries. The cap
	// comfortably exceeds one inference's working set (≤ In+Out-1 diagonals
	// plus the bias per (level, scale)), so the steady-state serving path
	// never evicts what it is about to reuse.
	for limit := 2*(l.In+l.Out) + 16; len(l.pts) >= limit; {
		for k := range l.pts {
			delete(l.pts, k)
			break
		}
	}
	l.pts[key] = pt
	l.ptMu.Unlock()
	return pt, nil
}

// diagPlan is the cached diagonal decomposition of W at one slot count:
// the generalized diagonals with any nonzero entry and, for each, the
// ready-to-encode slot vector u_d[i] = W[i][(i+d) mod slots].
type diagPlan struct {
	slots int
	diags []int
	vec   map[int][]float64
}

// diagonalPlan returns the cached plan for the slot count, building it on
// first use. Safe for concurrent callers (batched serving hits one Linear
// from many goroutines).
func (l *Linear) diagonalPlan(slots int) *diagPlan {
	l.planMu.Lock()
	defer l.planMu.Unlock()
	if l.plan != nil && l.plan.slots == slots {
		return l.plan
	}
	// Out is clamped to the slot count: rows beyond it cannot appear in a
	// slot vector (such a layer fails ApplyLinear's dimension check anyway;
	// the plan must still not panic for callers like RequiredRotations).
	rows := min(l.Out, slots)
	p := &diagPlan{slots: slots, vec: map[int][]float64{}}
	for d := 0; d < slots; d++ {
		var u []float64
		for i := 0; i < rows; i++ {
			j := (i + d) % slots
			if j < l.In && l.W[i][j] != 0 {
				if u == nil {
					u = make([]float64, slots)
				}
				u[i] = l.W[i][j]
			}
		}
		if u != nil {
			p.diags = append(p.diags, d)
			p.vec[d] = u
		}
	}
	l.plan = p
	return p
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
			act := slots[slotIdx].PAFLayer().(*nn.PAFAct)
			out.Layers = append(out.Layers, &Activation{PAF: act.PAF.Clone(), Scale: act.Scale})
			slotIdx++
		}
	}
	if slotIdx != len(slots) {
		return nil, fmt.Errorf("henn: %d activations matched for %d slots", slotIdx, len(slots))
	}
	return out, nil
}

// DropCaches releases every linear layer's cached diagonal plan and encoded
// plaintexts. A model registry calls this when a retired model finishes
// draining, so a hot-deployed-then-retired network cannot pin slot-sized
// caches for the life of the process.
func (mlp *MLP) DropCaches() {
	for _, l := range mlp.Layers {
		lin, ok := l.(*Linear)
		if !ok {
			continue
		}
		lin.planMu.Lock()
		lin.plan = nil
		lin.planMu.Unlock()
		lin.ptMu.Lock()
		lin.pts = nil
		lin.ptMu.Unlock()
	}
}

// RequiredRotations returns the sorted rotation steps every linear layer
// needs under the diagonal method at the given slot count.
func (mlp *MLP) RequiredRotations(slots int) []int {
	seen := map[int]bool{}
	for _, l := range mlp.Layers {
		lin, ok := l.(*Linear)
		if !ok {
			continue
		}
		for _, d := range lin.diagonals(slots) {
			if d != 0 {
				seen[d] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// LevelsRequired returns the multiplicative levels one inference consumes:
// one per linear layer (diagonal plaintext product) plus DepthReLU+1 per
// activation (the +1 is the 1/Scale input normalization).
func (mlp *MLP) LevelsRequired() int {
	total := 0
	for _, l := range mlp.Layers {
		switch v := l.(type) {
		case *Linear:
			total++
		case *Activation:
			total += v.PAF.DepthReLU() + 1
		}
	}
	return total
}

// diagonals lists the generalized diagonals d with any nonzero entry:
// u_d[i] = W[i][(i+d) mod slots].
func (l *Linear) diagonals(slots int) []int {
	return l.diagonalPlan(slots).diags
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

// ApplyLinear computes Wx + b on the encrypted vector via the diagonal
// method, consuming one level. The result keeps the input's scale.
func (ctx *Context) ApplyLinear(l *Linear, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	slots := ctx.Params.Slots()
	if l.In > slots || l.Out > slots {
		return nil, fmt.Errorf("henn: layer %dx%d exceeds %d slots", l.Out, l.In, slots)
	}
	if ct.Level < 1 {
		return nil, fmt.Errorf("henn: no level left for linear layer")
	}
	targetScale := ct.Scale
	ql := float64(ctx.Params.Q()[ct.Level])
	constScale := targetScale * ql / ct.Scale // = ql: lands back on targetScale

	plan := l.diagonalPlan(slots)
	if len(plan.diags) == 0 {
		return nil, fmt.Errorf("henn: all-zero weight matrix")
	}
	eval := ctx.Eval
	tr := ctx.trace
	// Σ_d u_d ⊙ rot(x, d) as one lazily reduced accumulation; each rotation
	// goes back to the pool as soon as its term is added.
	sum := eval.NewPlainSum(ct.Level)
	defer sum.Release()
	for _, d := range plan.diags {
		rot := ct
		if d != 0 {
			mark := tr.StageStart()
			var err error
			rot, err = eval.Rotate(ct, d)
			tr.StageEnd("rotate", mark)
			if err != nil {
				return nil, fmt.Errorf("henn: diagonal %d: %w", d, err)
			}
		}
		mark := tr.StageStart()
		pt, err := l.encodedPlaintext(
			ptKey{enc: ctx.Enc, d: d, level: rot.Level, scale: constScale},
			func() []float64 { return plan.vec[d] })
		tr.StageEnd("encode", mark)
		if err == nil {
			mark = tr.StageStart()
			err = sum.MulPlainThenAdd(rot, pt)
			tr.StageEnd("mul_plain", mark)
		}
		if d != 0 {
			eval.Recycle(rot)
		}
		if err != nil {
			return nil, err
		}
	}
	mark := tr.StageStart()
	acc, err := sum.Sum()
	tr.StageEnd("mul_plain", mark)
	if err != nil {
		return nil, err
	}
	mark = tr.StageStart()
	out, err := eval.Rescale(acc)
	tr.StageEnd("rescale", mark)
	eval.Recycle(acc)
	if err != nil {
		return nil, err
	}
	out.Scale = targetScale
	if out, err = l.addBias(ctx, out); err != nil {
		return nil, err
	}
	return out, nil
}

// addBias adds the (cached) encoded bias vector, if any.
func (l *Linear) addBias(ctx *Context, out *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	if l.B == nil {
		return out, nil
	}
	slots := ctx.Params.Slots()
	tr := ctx.trace
	mark := tr.StageStart()
	pt, err := l.encodedPlaintext(
		ptKey{enc: ctx.Enc, d: -1, level: out.Level, scale: out.Scale},
		func() []float64 {
			bias := make([]float64, slots)
			copy(bias, l.B)
			return bias
		})
	tr.StageEnd("encode", mark)
	if err != nil {
		return nil, err
	}
	mark = tr.StageStart()
	res, err := ctx.Eval.AddPlain(out, pt)
	tr.StageEnd("add_plain", mark)
	return res, err
}

// ApplyActivation computes Scale·relu_p(x/Scale): one constant level for the
// input normalization, then the folded-scale PAF ReLU.
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
	return out, err
}

// Infer runs the full MLP on an encrypted input vector.
func (ctx *Context) Infer(mlp *MLP, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	var err error
	for i, l := range mlp.Layers {
		switch v := l.(type) {
		case *Linear:
			ct, err = ctx.ApplyLinear(v, ct)
		case *Activation:
			ct, err = ctx.ApplyActivation(v, ct)
		default:
			err = fmt.Errorf("henn: unknown layer type %T", l)
		}
		if err != nil {
			return nil, fmt.Errorf("henn: layer %d: %w", i, err)
		}
	}
	return ct, nil
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
