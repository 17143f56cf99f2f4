package nn

import (
	"github.com/efficientfhe/smartpaf/internal/tensor"
)

// MaxPool2D is the exact max pooling operator (the second non-polynomial
// operator PAFs replace).
type MaxPool2D struct {
	Kernel, Stride, Pad int
	argmax              []int
	inShape             []int
	geom                tensor.ConvGeom
}

// NewMaxPool2D builds an exact max-pool layer.
func NewMaxPool2D(kernel, stride, pad int) *MaxPool2D {
	return &MaxPool2D{Kernel: kernel, Stride: stride, Pad: pad}
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return "maxpool" }

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	p.inShape = append([]int(nil), x.Shape...)
	p.geom = tensor.Geometry(c, h, w, p.Kernel, p.Stride, p.Pad)
	out := tensor.New(n, c, p.geom.OutH, p.geom.OutW)
	p.argmax = make([]int, out.Numel())
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			inBase := (b*c + ch) * h * w
			outBase := (b*c + ch) * p.geom.OutH * p.geom.OutW
			for oh := 0; oh < p.geom.OutH; oh++ {
				khLo, khHi := p.geom.Taps(oh, h)
				for ow := 0; ow < p.geom.OutW; ow++ {
					kwLo, kwHi := p.geom.Taps(ow, w)
					best := -1
					var bestV float64
					for kh := khLo; kh < khHi; kh++ {
						ih := oh*p.Stride + kh - p.Pad
						for kw := kwLo; kw < kwHi; kw++ {
							iw := ow*p.Stride + kw - p.Pad
							idx := inBase + ih*w + iw
							if best == -1 || x.Data[idx] > bestV {
								best, bestV = idx, x.Data[idx]
							}
						}
					}
					oidx := outBase + oh*p.geom.OutW + ow
					out.Data[oidx] = bestV
					p.argmax[oidx] = best
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(p.inShape...)
	for i, g := range grad.Data {
		if p.argmax[i] >= 0 {
			out.Data[p.argmax[i]] += g
		}
	}
	return out
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// AvgPool2DGlobal averages each channel to a single value, producing
// [N, C, 1, 1].
type AvgPool2DGlobal struct {
	inShape []int
}

// NewAvgPool2DGlobal returns a global average pooling layer.
func NewAvgPool2DGlobal() *AvgPool2DGlobal { return &AvgPool2DGlobal{} }

// Name implements Layer.
func (p *AvgPool2DGlobal) Name() string { return "avgpool" }

// Forward implements Layer.
func (p *AvgPool2DGlobal) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	p.inShape = append([]int(nil), x.Shape...)
	out := tensor.New(n, c, 1, 1)
	hw := float64(h * w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * h * w
			var s float64
			for i := 0; i < h*w; i++ {
				s += x.Data[base+i]
			}
			out.Data[b*c+ch] = s / hw
		}
	}
	return out
}

// Backward implements Layer.
func (p *AvgPool2DGlobal) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	out := tensor.New(p.inShape...)
	inv := 1 / float64(h*w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			g := grad.Data[b*c+ch] * inv
			base := (b*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				out.Data[base+i] = g
			}
		}
	}
	return out
}

// Params implements Layer.
func (p *AvgPool2DGlobal) Params() []*Param { return nil }
