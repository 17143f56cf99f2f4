// Package nn is a from-scratch neural-network framework with manual
// backpropagation, sized for CPU-scale reproduction of the paper's training
// experiments. It provides the layers of VGG-19 and ResNet-18, trainable PAF
// activation layers with Dynamic/Static Scaling, parameter groups (PAF
// coefficients vs. everything else, per the paper's Table 5), the Adam
// optimizer, stochastic weight averaging and dropout.
package nn

import (
	"math"
	"math/rand"

	"github.com/efficientfhe/smartpaf/internal/tensor"
)

// Parameter groups used by Alternate Training and per-group hyperparameters.
const (
	GroupPAF    = "paf"    // PAF stage coefficients
	GroupLinear = "linear" // convolution, linear, batchnorm parameters
)

// Param is one trainable parameter vector. Data may alias external storage
// (PAF layers alias their stage coefficient slices so updates apply
// directly).
type Param struct {
	Name   string
	Group  string
	Data   []float64
	Grad   []float64
	Frozen bool
}

// newParam allocates a parameter with a matching gradient buffer.
func newParam(name, group string, data []float64) *Param {
	return &Param{Name: name, Group: group, Data: data, Grad: make([]float64, len(data))}
}

// Layer is a differentiable module. Forward must retain whatever state
// Backward needs; Backward receives d(loss)/d(output) and returns
// d(loss)/d(input), accumulating parameter gradients into Params().Grad.
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// ReLU is the exact rectifier (the operator PAFs replace).
type ReLU struct {
	mask []bool
}

// NewReLU returns an exact ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Clone()
	if cap(r.mask) < len(out.Data) {
		r.mask = make([]bool, len(out.Data))
	}
	r.mask = r.mask[:len(out.Data)]
	for i, v := range out.Data {
		if v > 0 {
			r.mask[i] = true
		} else {
			r.mask[i] = false
			out.Data[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	for i := range out.Data {
		if !r.mask[i] {
			out.Data[i] = 0
		}
	}
	return out
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Linear is a fully connected layer y = xW + b with x [N, in].
type Linear struct {
	In, Out int
	W, B    *Param
	x       *tensor.Tensor
	label   string
}

// NewLinear builds a fully connected layer with He initialization.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{In: in, Out: out, label: name}
	w := make([]float64, in*out)
	std := math.Sqrt(2.0 / float64(in))
	for i := range w {
		w[i] = rng.NormFloat64() * std
	}
	l.W = newParam(name+".w", GroupLinear, w)
	l.B = newParam(name+".b", GroupLinear, make([]float64, out))
	return l
}

// Name implements Layer.
func (l *Linear) Name() string { return l.label }

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.x = x
	n := x.Shape[0]
	w := tensor.FromSlice(l.W.Data, l.In, l.Out)
	out := tensor.MatMul(x.Reshape(n, l.In), w)
	for i := 0; i < n; i++ {
		row := out.Data[i*l.Out : (i+1)*l.Out]
		for j := range row {
			row[j] += l.B.Data[j]
		}
	}
	return out
}

// Backward implements Layer.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Shape[0]
	x2 := l.x.Reshape(n, l.In)
	// dW = xᵀ · grad
	dw := tensor.MatMulTransA(x2, grad)
	for i, v := range dw.Data {
		l.W.Grad[i] += v
	}
	for i := 0; i < n; i++ {
		row := grad.Data[i*l.Out : (i+1)*l.Out]
		for j := range row {
			l.B.Grad[j] += row[j]
		}
	}
	// dX = grad · Wᵀ (MatMulTransB transposes its second operand).
	w := tensor.FromSlice(l.W.Data, l.In, l.Out)
	return tensor.MatMulTransB(grad, w)
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Flatten reshapes [N, ...] to [N, rest].
type Flatten struct {
	shape []int
}

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.shape = append([]int(nil), x.Shape...)
	return x.Reshape(x.Shape[0], x.Numel()/x.Shape[0])
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.shape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Dropout is inverted dropout; active only in training mode and only when
// Enabled (the SMART-PAF scheduler toggles it on overfitting, Fig. 6).
type Dropout struct {
	P       float64
	Enabled bool
	rng     *rand.Rand
	mask    []float64
}

// NewDropout builds a dropout layer with drop probability p (disabled until
// the scheduler enables it, matching Table 5's "Dropout: False" default).
func NewDropout(p float64, rng *rand.Rand) *Dropout {
	return &Dropout{P: p, rng: rng}
}

// Name implements Layer.
func (d *Dropout) Name() string { return "dropout" }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || !d.Enabled || d.P <= 0 {
		d.mask = nil
		return x
	}
	out := x.Clone()
	if cap(d.mask) < len(out.Data) {
		d.mask = make([]float64, len(out.Data))
	}
	d.mask = d.mask[:len(out.Data)]
	keep := 1 - d.P
	inv := 1 / keep
	for i := range out.Data {
		if d.rng.Float64() < keep {
			d.mask[i] = inv
			out.Data[i] *= inv
		} else {
			d.mask[i] = 0
			out.Data[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return grad
	}
	out := grad.Clone()
	for i := range out.Data {
		out.Data[i] *= d.mask[i]
	}
	return out
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }
