package nn

import (
	"math"
)

// Adam implements the Adam optimizer with decoupled weight decay, applied to
// one parameter group. Table 5's defaults: PAF coefficients (lr 1e-4,
// wd 0.01) and other layers (lr 1e-5, wd 0.1).
type Adam struct {
	LR, Beta1, Beta2, Eps, WeightDecay float64

	t int
	m map[*Param][]float64
	v map[*Param][]float64
}

// NewAdam constructs an Adam optimizer.
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay,
		m: map[*Param][]float64{}, v: map[*Param][]float64{}}
}

// Step applies one update to every unfrozen parameter in the list.
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		if p.Frozen {
			continue
		}
		m := a.m[p]
		if m == nil {
			m = make([]float64, len(p.Data))
			a.m[p] = m
			a.v[p] = make([]float64, len(p.Data))
		}
		v := a.v[p]
		for i := range p.Data {
			g := p.Grad[i]
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mh := m[i] / bc1
			vh := v[i] / bc2
			p.Data[i] -= a.LR * (mh/(math.Sqrt(vh)+a.Eps) + a.WeightDecay*p.Data[i])
		}
	}
}

// SWA accumulates stochastic weight averages over epochs (used by the
// SMART-PAF training group, Fig. 6) and can write the averaged weights into
// the model.
type SWA struct {
	sum   [][]float64
	count int
}

// NewSWA returns an empty accumulator.
func NewSWA() *SWA { return &SWA{} }

// Accumulate folds the model's current parameters into the running average.
func (s *SWA) Accumulate(m *Model) {
	params := m.Params()
	if s.sum == nil {
		s.sum = make([][]float64, len(params))
		for i, p := range params {
			s.sum[i] = make([]float64, len(p.Data))
		}
	}
	for i, p := range params {
		for j, v := range p.Data {
			s.sum[i][j] += v
		}
	}
	s.count++
}

// Average returns the averaged snapshot (nil if nothing accumulated).
func (s *SWA) Average() [][]float64 {
	if s.count == 0 {
		return nil
	}
	out := make([][]float64, len(s.sum))
	inv := 1 / float64(s.count)
	for i := range s.sum {
		out[i] = make([]float64, len(s.sum[i]))
		for j, v := range s.sum[i] {
			out[i][j] = v * inv
		}
	}
	return out
}
