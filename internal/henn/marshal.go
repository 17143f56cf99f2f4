package henn

import (
	"fmt"
	"math"

	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/wire"
)

// Binary serialization for the deployed model artifact. A frozen MLP is what
// a registry hot-deploys over the network, so it gets the same wire-format
// discipline as the internal/ckks key material, on the same internal/wire
// codec: a leading magic, explicit bounds on every count before allocation,
// and finiteness checks on every float — a hostile payload must fail at the
// boundary, never panic (or NaN-poison) the inference loop.
//
// Layout (little-endian):
//
//	u32 magic | u32 layerCount
//	per layer: u32 kind
//	  kind 1 (Linear):     u32 In | u32 Out | u32 biasFlag |
//	                       Out×In f64 weights (row-major) | [Out f64 bias]
//	  kind 2 (Activation): f64 scale | composite:
//	                       u32 nameLen | name | u32 labelLen | label |
//	                       u32 stageCount | per stage: u32 nCoeffs | f64 coeffs

const (
	mlpMagic = uint32(0x5AF7CC07)

	layerKindLinear     = uint32(1)
	layerKindActivation = uint32(2)

	// maxLayerDim bounds Linear.In/Out: generous for any MLP this stack can
	// serve (slot counts top out at 2^19 for N ≤ 2^20) while keeping a
	// hostile header from forcing a huge allocation.
	maxLayerDim = 1 << 16
	maxLayers   = 256
	maxStages   = 16
	maxCoeffs   = 64
	maxNameLen  = 128
)

// MarshalBinary implements encoding.BinaryMarshaler.
func (mlp *MLP) MarshalBinary() ([]byte, error) {
	if len(mlp.Layers) == 0 || len(mlp.Layers) > maxLayers {
		return nil, fmt.Errorf("henn: cannot marshal an MLP with %d layers", len(mlp.Layers))
	}
	var w wire.Writer
	w.U32(mlpMagic)
	w.U32(uint32(len(mlp.Layers)))
	for i, l := range mlp.Layers {
		var err error
		switch v := l.(type) {
		case *Linear:
			err = writeLinear(&w, v)
		case *Activation:
			err = writeActivation(&w, v)
		default:
			err = fmt.Errorf("unserializable type %T", l)
		}
		if err != nil {
			return nil, fmt.Errorf("henn: layer %d: %w", i, err)
		}
	}
	return w, nil
}

func writeLinear(w *wire.Writer, l *Linear) error {
	if l.In <= 0 || l.In > maxLayerDim || l.Out <= 0 || l.Out > maxLayerDim {
		return fmt.Errorf("linear layer dimensions %dx%d out of range", l.Out, l.In)
	}
	if len(l.W) != l.Out {
		return fmt.Errorf("linear layer has %d weight rows for Out=%d", len(l.W), l.Out)
	}
	if l.B != nil && len(l.B) != l.Out {
		return fmt.Errorf("linear layer has %d bias entries for Out=%d", len(l.B), l.Out)
	}
	bias := uint32(0)
	if l.B != nil {
		bias = 1
	}
	for _, v := range []uint32{layerKindLinear, uint32(l.In), uint32(l.Out), bias} {
		w.U32(v)
	}
	for _, row := range l.W {
		if len(row) != l.In {
			return fmt.Errorf("linear layer weight row has %d entries for In=%d", len(row), l.In)
		}
		w.F64s(row)
	}
	w.F64s(l.B)
	return nil
}

// readLinear reads the weight matrix as one block (its rows are views into
// it), so the row table is only allocated once the payload has proven it
// holds Out×In floats. The result is meaningless once r has failed.
func readLinear(r *wire.Reader) *Linear {
	in, out, bias := r.Count(maxLayerDim), r.Count(maxLayerDim), r.U32()
	if in == 0 || out == 0 || bias > 1 {
		r.Fail("implausible linear layer header (%dx%d, bias flag %d)", out, in, bias)
	}
	flat := r.F64s(out * in)
	if r.Err() != nil {
		return nil
	}
	l := &Linear{In: in, Out: out, W: make([][]float64, out)}
	for i := range l.W {
		l.W[i] = flat[i*in : (i+1)*in : (i+1)*in]
	}
	if bias == 1 {
		l.B = r.F64s(out)
	}
	return l
}

func writeActivation(w *wire.Writer, a *Activation) error {
	if a.PAF == nil || len(a.PAF.Stages) == 0 {
		return fmt.Errorf("activation has no PAF stages")
	}
	if len(a.PAF.Stages) > maxStages {
		return fmt.Errorf("activation has %d PAF stages (max %d)", len(a.PAF.Stages), maxStages)
	}
	if math.IsNaN(a.Scale) || math.IsInf(a.Scale, 0) || a.Scale <= 0 {
		return fmt.Errorf("activation has implausible scale %g", a.Scale)
	}
	w.U32(layerKindActivation)
	w.F64(a.Scale)
	w.Blob([]byte(a.PAF.Name))
	w.Blob([]byte(a.PAF.Label))
	w.U32(uint32(len(a.PAF.Stages)))
	for _, s := range a.PAF.Stages {
		if len(s.Coeffs) == 0 || len(s.Coeffs) > maxCoeffs {
			return fmt.Errorf("PAF stage has %d coefficients (max %d)", len(s.Coeffs), maxCoeffs)
		}
		w.U32(uint32(len(s.Coeffs)))
		w.F64s(s.Coeffs)
	}
	return nil
}

// readActivation's result is meaningless once r has failed.
func readActivation(r *wire.Reader) *Activation {
	scale := r.F64()
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale <= 0 {
		r.Fail("implausible activation scale %g", scale)
	}
	c := &paf.Composite{Name: string(r.Blob(maxNameLen)), Label: string(r.Blob(maxNameLen))}
	c.Stages = make([]*paf.OddPoly, r.Count(maxStages))
	if len(c.Stages) == 0 {
		r.Fail("activation has no PAF stages")
	}
	for i := range c.Stages {
		coeffs := r.F64s(r.Count(maxCoeffs))
		if len(coeffs) == 0 {
			r.Fail("PAF stage %d has no coefficients", i)
			return nil
		}
		c.Stages[i] = paf.NewOddPoly(coeffs)
	}
	return &Activation{PAF: c, Scale: scale}
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The decoded MLP's
// linear layers have no plan; each encodes one on its first inference.
func (mlp *MLP) UnmarshalBinary(data []byte) error {
	r := wire.NewReader("henn: MLP", data)
	r.Magic(mlpMagic)
	n := r.Count(maxLayers)
	if n == 0 {
		r.Fail("network has no layers")
	}
	layers := make([]any, 0, n)
	for ; n > 0 && r.Err() == nil; n-- {
		switch kind := r.U32(); kind {
		case layerKindLinear:
			layers = append(layers, readLinear(r))
		case layerKindActivation:
			layers = append(layers, readActivation(r))
		default:
			r.Fail("unknown layer kind %d", kind)
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	mlp.Layers = layers
	return nil
}
