package nn

import (
	"fmt"

	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/tensor"
)

// ScaleMode selects the input-scaling strategy of a PAF layer (paper §4.5).
type ScaleMode int

const (
	// ScaleDynamic normalizes every batch by its own max |x| — training only
	// (FHE has no value-dependent operators).
	ScaleDynamic ScaleMode = iota
	// ScaleStatic uses a frozen scale (the running max captured during
	// training), the FHE-deployable mode.
	ScaleStatic
)

// Scaling is the DS/SS core both PAF layers embed (paper §4.5): the
// composite they train, with their parameters aliasing its stage
// coefficients so optimizer steps mutate it in place, and the one rule that
// picks the input scale s of out = s·op_p(x/s). Training runs Dynamic
// Scaling; Deploy freezes Scale to RunningMax for FHE.
type Scaling struct {
	PAF   *paf.Composite
	Mode  ScaleMode
	Scale float64 // static scale (frozen running max)

	// RunningMax tracks the max |input| seen during training; Static Scaling
	// freezes Scale to this value at deployment (paper §4.5).
	RunningMax float64

	params []*Param
	label  string
}

func newScaling(name string, c *paf.Composite) Scaling {
	s := Scaling{PAF: c, Mode: ScaleDynamic, Scale: 1, label: name}
	for i, stage := range c.Stages {
		s.params = append(s.params, newParam(fmt.Sprintf("%s.stage%d", name, i), GroupPAF, stage.Coeffs))
	}
	return s
}

// Name implements Layer.
func (s *Scaling) Name() string { return s.label }

// Params implements Layer.
func (s *Scaling) Params() []*Param { return s.params }

// scaling lets Slot.PAFLayer reach the core of either PAF layer.
func (s *Scaling) scaling() *Scaling { return s }

// batchScale returns the scale for this batch — its own max |x| under
// Dynamic Scaling, the frozen Scale under Static, 1 in place of 0 — and
// raises the running max on a training batch.
func (s *Scaling) batchScale(x *tensor.Tensor, train bool) float64 {
	batchMax := x.MaxAbs()
	if train && batchMax > s.RunningMax {
		s.RunningMax = batchMax
	}
	scale := s.Scale
	if s.Mode == ScaleDynamic {
		scale = batchMax
	}
	if scale == 0 {
		return 1
	}
	return scale
}

// Deploy freezes the layer for FHE: switches to Static Scaling with the
// running max. Returns an error if no running max was ever observed.
func (s *Scaling) Deploy() error {
	if s.RunningMax == 0 {
		return fmt.Errorf("nn: %s has no recorded running max; train before deploying", s.label)
	}
	s.Mode = ScaleStatic
	s.Scale = s.RunningMax
	return nil
}

// PAFAct replaces a ReLU with a trainable PAF: out = s·relu_p(x/s). ReLU's
// positive homogeneity makes the rescaling exact for the true operator, so
// the PAF only has to be accurate on [-1, 1].
type PAFAct struct {
	Scaling

	// cached forward state; gradients are recomputed in Backward from x and
	// s rather than stored per element.
	x *tensor.Tensor
	s float64
}

// NewPAFAct wraps a composite PAF as an activation layer that trains it in
// place.
func NewPAFAct(name string, c *paf.Composite) *PAFAct {
	return &PAFAct{Scaling: newScaling(name, c)}
}

// Forward implements Layer.
func (a *PAFAct) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	a.x = x
	a.s = a.batchScale(x, train)
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = a.s * a.PAF.ReLU(v/a.s)
	}
	return out
}

// Backward implements Layer.
func (a *PAFAct) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	// Recompute per-element coefficient gradients with the upstream signal;
	// this avoids storing one gradient row per element in Forward.
	for i, v := range a.x.Data {
		u := v / a.s
		_, du, dc := a.PAF.ReLUWithGrad(u)
		g := grad.Data[i]
		out.Data[i] = g * du
		for si := range dc {
			prow := a.params[si].Grad
			for k := range dc[si] {
				prow[k] += g * a.s * dc[si][k]
			}
		}
	}
	return out
}

// PAFMaxPool replaces max pooling with a pairwise PAF max tree over each
// window, sharing one trainable PAF across the layer. Inputs are scaled like
// PAFAct (max is positively homogeneous too).
type PAFMaxPool struct {
	Scaling
	Kernel, Stride, Pad int

	x       *tensor.Tensor
	s       float64
	windows [][]int // input indices per output element
	inShape []int
	geom    tensor.ConvGeom
}

// NewPAFMaxPool builds a PAF max pooling layer.
func NewPAFMaxPool(name string, c *paf.Composite, kernel, stride, pad int) *PAFMaxPool {
	return &PAFMaxPool{Scaling: newScaling(name, c), Kernel: kernel, Stride: stride, Pad: pad}
}

// Forward implements Layer.
func (p *PAFMaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	p.x = x
	p.inShape = append([]int(nil), x.Shape...)
	p.geom = tensor.Geometry(c, h, w, p.Kernel, p.Stride, p.Pad)
	p.s = p.batchScale(x, train)

	out := tensor.New(n, c, p.geom.OutH, p.geom.OutW)
	p.windows = make([][]int, out.Numel())
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			inBase := (b*c + ch) * h * w
			outBase := (b*c + ch) * p.geom.OutH * p.geom.OutW
			for oh := 0; oh < p.geom.OutH; oh++ {
				khLo, khHi := p.geom.Taps(oh, h)
				for ow := 0; ow < p.geom.OutW; ow++ {
					kwLo, kwHi := p.geom.Taps(ow, w)
					var win []int
					for kh := khLo; kh < khHi; kh++ {
						ih := oh*p.Stride + kh - p.Pad
						for kw := kwLo; kw < kwHi; kw++ {
							iw := ow*p.Stride + kw - p.Pad
							win = append(win, inBase+ih*w+iw)
						}
					}
					oidx := outBase + oh*p.geom.OutW + ow
					p.windows[oidx] = win
					out.Data[oidx] = p.s * p.treeMax(win, nil, 0)
				}
			}
		}
	}
	return out
}

// treeMax reduces the window with pairwise PAF max on scaled values. When
// grads is non-nil it also accumulates d(out)/d(input_i) into grads (same
// indexing as win) and coefficient gradients scaled by upstream into the
// layer parameter grads (weighted by coefWeight).
func (p *PAFMaxPool) treeMax(win []int, grads []float64, coefWeight float64) float64 {
	vals := make([]float64, len(win))
	for i, idx := range win {
		vals[i] = p.x.Data[idx] / p.s
	}
	if grads == nil {
		for len(vals) > 1 {
			next := vals[:0]
			for i := 0; i < len(vals); i += 2 {
				if i+1 == len(vals) {
					next = append(next, vals[i])
					continue
				}
				next = append(next, p.PAF.Max(vals[i], vals[i+1]))
			}
			vals = next
		}
		return vals[0]
	}

	// Gradient-carrying reduction: track d(current)/d(original input j).
	jac := make([][]float64, len(vals))
	for i := range jac {
		jac[i] = make([]float64, len(win))
		jac[i][i] = 1
	}
	cur := vals
	for len(cur) > 1 {
		var next []float64
		var nextJac [][]float64
		for i := 0; i < len(cur); i += 2 {
			if i+1 == len(cur) {
				next = append(next, cur[i])
				nextJac = append(nextJac, jac[i])
				continue
			}
			m, dx, dy, dc := p.PAF.MaxWithGrad(cur[i], cur[i+1])
			next = append(next, m)
			row := make([]float64, len(win))
			for j := range row {
				row[j] = dx*jac[i][j] + dy*jac[i+1][j]
			}
			nextJac = append(nextJac, row)
			// Coefficient grads: upstream weight times ∂m/∂c, chained
			// through the remaining reductions — approximated by direct
			// accumulation (exact for the last reduction, first-order for
			// inner ones; sufficient for SGD fine-tuning).
			for si := range dc {
				prow := p.params[si].Grad
				for k := range dc[si] {
					prow[k] += coefWeight * dc[si][k]
				}
			}
		}
		cur, jac = next, nextJac
	}
	copy(grads, jac[0])
	return cur[0]
}

// Backward implements Layer.
func (p *PAFMaxPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(p.inShape...)
	for oidx, win := range p.windows {
		if len(win) == 0 {
			continue
		}
		g := grad.Data[oidx]
		grads := make([]float64, len(win))
		p.treeMax(win, grads, g*p.s)
		for i, idx := range win {
			// d(s·tree(x/s))/dx = tree'(u).
			out.Data[idx] += g * grads[i]
		}
	}
	return out
}
