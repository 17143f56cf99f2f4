// Package tensor provides the minimal dense float64 tensor used by the
// from-scratch neural-network framework in internal/nn: row-major storage,
// NCHW convention for image batches, matrix multiplication and the
// im2col/col2im transforms that back convolution.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float64 array with an explicit shape.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in %v", s, shape))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data with a shape; the slice is not copied.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: %d elements cannot have shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Numel returns the number of elements.
func (t *Tensor) Numel() int { return len(t.Data) }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	return &Tensor{Shape: append([]int(nil), t.Shape...), Data: append([]float64(nil), t.Data...)}
}

// Reshape returns a view with a new shape (same data).
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// AddInPlace adds other element-wise.
func (t *Tensor) AddInPlace(other *Tensor) {
	for i := range t.Data {
		t.Data[i] += other.Data[i]
	}
}

// MaxAbs returns max |x| over all elements (0 for empty).
func (t *Tensor) MaxAbs() float64 {
	var m float64
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// FillRandN fills with N(0, std²) values from rng.
func (t *Tensor) FillRandN(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
}

// MatMul computes a[m,k] × b[k,n] into a fresh [m,n] tensor (ikj order).
func MatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul shapes %v × %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// MatMulTransA computes aᵀ[k,m]ᵀ × b ... specifically out = aᵀ·b where
// a is [k,m] and b is [k,n], producing [m,n].
func MatMulTransA(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmulTransA shapes %v × %v", a.Shape, b.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// MatMulTransB computes a[m,k] × bᵀ where b is [n,k], producing [m,n].
func MatMulTransB(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: matmulTransB shapes %v × %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float64
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] = s
		}
	}
	return out
}

// ConvGeom describes a convolution/pooling geometry.
type ConvGeom struct {
	InC, InH, InW       int
	Kernel, Stride, Pad int
	OutH, OutW          int
}

// Geometry computes output sizes for the given input and kernel parameters.
func Geometry(inC, inH, inW, kernel, stride, pad int) ConvGeom {
	outH := (inH+2*pad-kernel)/stride + 1
	outW := (inW+2*pad-kernel)/stride + 1
	return ConvGeom{InC: inC, InH: inH, InW: inW, Kernel: kernel, Stride: stride, Pad: pad, OutH: outH, OutW: outW}
}

// Taps returns the kernel offsets [lo, hi) whose input index
// o·Stride + k − Pad, for output index o along an axis of size in, falls
// inside [0, in): the in-bounds part of one window along that axis, in tap
// order. The range is empty when no tap lands inside.
func (g ConvGeom) Taps(o, in int) (lo, hi int) {
	start := o*g.Stride - g.Pad
	return max(0, -start), min(g.Kernel, in-start)
}

// Im2Col expands x [N,C,H,W] into [N*outH*outW, C*k*k] patches; taps that
// fall in the padding stay zero.
func Im2Col(x *Tensor, g ConvGeom) *Tensor {
	n := x.Shape[0]
	cols := New(n*g.OutH*g.OutW, g.InC*g.Kernel*g.Kernel)
	colW := g.InC * g.Kernel * g.Kernel
	for b := 0; b < n; b++ {
		for oh := 0; oh < g.OutH; oh++ {
			khLo, khHi := g.Taps(oh, g.InH)
			for ow := 0; ow < g.OutW; ow++ {
				kwLo, kwHi := g.Taps(ow, g.InW)
				row := ((b*g.OutH+oh)*g.OutW + ow) * colW
				for c := 0; c < g.InC; c++ {
					base := (b*g.InC + c) * g.InH * g.InW
					for kh := khLo; kh < khHi; kh++ {
						ih := oh*g.Stride + kh - g.Pad
						for kw := kwLo; kw < kwHi; kw++ {
							iw := ow*g.Stride + kw - g.Pad
							cols.Data[row+(c*g.Kernel+kh)*g.Kernel+kw] = x.Data[base+ih*g.InW+iw]
						}
					}
				}
			}
		}
	}
	return cols
}

// Col2Im scatters column gradients back to the input layout, accumulating
// overlapping patches (the adjoint of Im2Col).
func Col2Im(cols *Tensor, n int, g ConvGeom) *Tensor {
	x := New(n, g.InC, g.InH, g.InW)
	colW := g.InC * g.Kernel * g.Kernel
	for b := 0; b < n; b++ {
		for oh := 0; oh < g.OutH; oh++ {
			khLo, khHi := g.Taps(oh, g.InH)
			for ow := 0; ow < g.OutW; ow++ {
				kwLo, kwHi := g.Taps(ow, g.InW)
				row := ((b*g.OutH+oh)*g.OutW + ow) * colW
				for c := 0; c < g.InC; c++ {
					base := (b*g.InC + c) * g.InH * g.InW
					for kh := khLo; kh < khHi; kh++ {
						ih := oh*g.Stride + kh - g.Pad
						for kw := kwLo; kw < kwHi; kw++ {
							iw := ow*g.Stride + kw - g.Pad
							x.Data[base+ih*g.InW+iw] += cols.Data[row+(c*g.Kernel+kh)*g.Kernel+kw]
						}
					}
				}
			}
		}
	}
	return x
}
