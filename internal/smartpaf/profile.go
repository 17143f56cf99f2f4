// Package smartpaf implements the paper's contribution: the four SMART-PAF
// training techniques — Coefficient Tuning (CT), Progressive Approximation
// (PA), Alternate Training (AT) and Dynamic/Static Scaling (DS/SS) — plus
// the scheduling framework of Fig. 6 that composes them, and the baseline
// training strategies of prior work used throughout the evaluation section.
package smartpaf

import (
	"math"

	"github.com/efficientfhe/smartpaf/internal/data"
	"github.com/efficientfhe/smartpaf/internal/nn"
	"github.com/efficientfhe/smartpaf/internal/tensor"
)

// Profile is the input distribution observed at one non-polynomial slot:
// a histogram over the scale-normalized range [-1, 1] plus the running max
// used for that normalization. CT fits PAF coefficients against it, and
// Static Scaling freezes its Max at deployment.
type Profile struct {
	Bins []float64 // probability mass per bin over [-1, 1]
	Max  float64   // running max |x| observed
	N    int       // samples observed
}

// BinCenter returns the center of bin i in normalized coordinates.
func (p *Profile) BinCenter(i int) float64 {
	return -1 + (float64(i)+0.5)*2/float64(len(p.Bins))
}

// Weights returns normalized histogram masses (summing to 1).
func (p *Profile) Weights() []float64 {
	total := 0.0
	for _, b := range p.Bins {
		total += b
	}
	out := make([]float64, len(p.Bins))
	if total == 0 {
		return out
	}
	for i, b := range p.Bins {
		out[i] = b / total
	}
	return out
}

// ProfileSlots runs the model over up to maxBatches of the dataset and
// records the input distribution at every slot (Fig. 3 step 2) in
// profileBins bins. Inputs are normalized by the per-slot running max before
// binning, matching the view a dynamically scaled PAF sees.
func ProfileSlots(m *nn.Model, ds *data.Dataset, maxBatches int) []*Profile {
	slots := m.Slots()
	profiles := make([]*Profile, len(slots))
	raw := make([][]float64, len(slots)) // raw samples (subsampled)
	for i := range profiles {
		profiles[i] = &Profile{Bins: make([]float64, profileBins)}
	}
	restores := make([]func(), len(slots))
	for i, s := range slots {
		i := i
		kind := s.Kind
		restores[i] = s.Probe(func(x *tensor.Tensor) {
			p := profiles[i]
			// Both PAF layer kinds scale by the max input magnitude.
			if mx := x.MaxAbs(); mx > p.Max {
				p.Max = mx
			}
			stride := 1 + len(x.Data)/4096 // subsample to bound memory
			if kind == nn.SlotMaxPool {
				// A max-pool PAF applies its sign composite to pairwise
				// *differences* within windows, so CT must see the
				// difference distribution, approximated here by adjacent
				// elements.
				for j := 0; j+1 < len(x.Data); j += stride {
					raw[i] = append(raw[i], x.Data[j]-x.Data[j+1])
				}
			} else {
				for j := 0; j < len(x.Data); j += stride {
					raw[i] = append(raw[i], x.Data[j])
				}
			}
			p.N += len(x.Data)
		})
	}
	batches := ds.Batches(BatchSize, nil)
	if len(batches) > maxBatches {
		batches = batches[:maxBatches]
	}
	for _, b := range batches {
		m.Forward(b.X, false)
	}
	for _, r := range restores {
		r()
	}
	// Bin the raw samples normalized by each slot's max.
	for i, p := range profiles {
		if p.Max == 0 {
			p.Max = 1
		}
		for _, v := range raw[i] {
			u := v / p.Max
			if u < -1 || u > 1 || math.IsNaN(u) {
				continue
			}
			bin := int((u + 1) / 2 * profileBins)
			if bin >= profileBins {
				bin = profileBins - 1
			}
			p.Bins[bin]++
		}
	}
	return profiles
}
