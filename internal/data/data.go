// Package data generates the synthetic image-classification datasets that
// substitute for CIFAR-10 and ImageNet-1k in this offline reproduction.
// Each class is a random smooth "prototype" texture built
// from sinusoidal components; samples add per-sample phase jitter, a global
// texture shared by all classes, and Gaussian pixel noise. The knobs control
// task difficulty: more classes, stronger shared texture and noise make
// approximation errors in the network more damaging — reproducing the
// CIFAR-vs-ImageNet contrast of the paper's §5.4.4.
package data

import (
	"math"
	"math/rand"

	"github.com/efficientfhe/smartpaf/internal/tensor"
)

// Config controls the synthetic generator.
type Config struct {
	Classes  int
	Channels int
	Size     int // images are Size×Size
	Train    int // number of training samples
	Val      int // number of validation samples

	// Difficulty knobs.
	Components   int     // sinusoidal components per prototype
	NoiseStd     float64 // per-pixel Gaussian noise
	SharedWeight float64 // weight of the class-independent global texture
	JitterStd    float64 // per-sample phase jitter
	Seed         int64
}

// CIFARLike returns a 10-class easy task (stands in for CIFAR-10).
func CIFARLike() Config {
	return Config{
		Classes: 10, Channels: 3, Size: 16, Train: 2000, Val: 500,
		Components: 6, NoiseStd: 0.15, SharedWeight: 0.3, JitterStd: 0.12,
		Seed: 1,
	}
}

// ImageNetLike returns a 20-class hard task (stands in for ImageNet-1k):
// more classes, heavier shared texture and noise.
func ImageNetLike() Config {
	return Config{
		Classes: 20, Channels: 3, Size: 16, Train: 3000, Val: 600,
		Components: 8, NoiseStd: 0.2, SharedWeight: 0.6, JitterStd: 0.15,
		Seed: 2,
	}
}

// Tiny returns a minimal configuration for unit tests.
func Tiny() Config {
	return Config{
		Classes: 4, Channels: 1, Size: 8, Train: 160, Val: 80,
		Components: 4, NoiseStd: 0.2, SharedWeight: 0.2, JitterStd: 0.1,
		Seed: 3,
	}
}

// Dataset holds generated samples in NCHW layout.
type Dataset struct {
	X       *tensor.Tensor // [N, C, H, W]
	Y       []int
	Classes int
	cfg     Config
}

// component is one sinusoid of a prototype texture.
type component struct {
	fx, fy, phase, amp float64
}

// Generate builds train and validation splits with disjoint sample draws
// from the same class prototypes.
func Generate(cfg Config) (train, val *Dataset) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Class prototypes: per class, per channel, a set of components.
	protos := make([][][]component, cfg.Classes)
	for c := range protos {
		protos[c] = make([][]component, cfg.Channels)
		for ch := range protos[c] {
			comps := make([]component, cfg.Components)
			for i := range comps {
				comps[i] = component{
					fx:    float64(rng.Intn(4) + 1),
					fy:    float64(rng.Intn(4) + 1),
					phase: rng.Float64() * 2 * math.Pi,
					amp:   0.5 + rng.Float64(),
				}
			}
			protos[c][ch] = comps
		}
	}
	// One global texture shared by every class (classes differ only in their
	// prototype on top of it — the "fine distinction" difficulty knob).
	shared := make([][]component, cfg.Channels)
	for ch := range shared {
		comps := make([]component, cfg.Components)
		for i := range comps {
			comps[i] = component{
				fx:    float64(rng.Intn(5) + 1),
				fy:    float64(rng.Intn(5) + 1),
				phase: rng.Float64() * 2 * math.Pi,
				amp:   0.5 + rng.Float64(),
			}
		}
		shared[ch] = comps
	}

	gen := func(n int) *Dataset {
		ds := &Dataset{
			X:       tensor.New(n, cfg.Channels, cfg.Size, cfg.Size),
			Y:       make([]int, n),
			Classes: cfg.Classes,
			cfg:     cfg,
		}
		for i := 0; i < n; i++ {
			cls := rng.Intn(cfg.Classes)
			ds.Y[i] = cls
			for ch := 0; ch < cfg.Channels; ch++ {
				base := (i*cfg.Channels + ch) * cfg.Size * cfg.Size
				jitter := rng.NormFloat64() * cfg.JitterStd
				for y := 0; y < cfg.Size; y++ {
					for x := 0; x < cfg.Size; x++ {
						u := float64(x) / float64(cfg.Size)
						v := float64(y) / float64(cfg.Size)
						var val float64
						for _, cp := range protos[cls][ch] {
							val += cp.amp * math.Sin(2*math.Pi*(cp.fx*u+cp.fy*v)+cp.phase+jitter)
						}
						val /= float64(cfg.Components)
						var sh float64
						for _, cp := range shared[ch] {
							sh += cp.amp * math.Sin(2*math.Pi*(cp.fx*u+cp.fy*v)+cp.phase)
						}
						sh /= float64(cfg.Components)
						val = (val + cfg.SharedWeight*sh) / (1 + cfg.SharedWeight)
						val += rng.NormFloat64() * cfg.NoiseStd
						ds.X.Data[base+y*cfg.Size+x] = val
					}
				}
			}
		}
		return ds
	}
	return gen(cfg.Train), gen(cfg.Val)
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Sample returns sample i as a [1,C,H,W] view-free copy and its label.
func (d *Dataset) Sample(i int) (*tensor.Tensor, int) {
	c, h, w := d.X.Shape[1], d.X.Shape[2], d.X.Shape[3]
	out := tensor.New(1, c, h, w)
	copy(out.Data, d.X.Data[i*c*h*w:(i+1)*c*h*w])
	return out, d.Y[i]
}

// Batch is one minibatch.
type Batch struct {
	X *tensor.Tensor
	Y []int
}

// Batches splits the dataset into minibatches of at most batchSize, in the
// order given by perm (identity if nil).
func (d *Dataset) Batches(batchSize int, perm []int) []Batch {
	n := d.Len()
	if perm == nil {
		perm = make([]int, n)
		for i := range perm {
			perm[i] = i
		}
	}
	c, h, w := d.X.Shape[1], d.X.Shape[2], d.X.Shape[3]
	stride := c * h * w
	var out []Batch
	for start := 0; start < n; start += batchSize {
		end := min(start+batchSize, n)
		bs := end - start
		bx := tensor.New(bs, c, h, w)
		by := make([]int, bs)
		for i := 0; i < bs; i++ {
			src := perm[start+i]
			copy(bx.Data[i*stride:(i+1)*stride], d.X.Data[src*stride:(src+1)*stride])
			by[i] = d.Y[src]
		}
		out = append(out, Batch{X: bx, Y: by})
	}
	return out
}

// Shuffle returns a permutation of the dataset indices from the given seed.
func (d *Dataset) Shuffle(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(d.Len())
	return perm
}
