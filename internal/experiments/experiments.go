// Package experiments regenerates every table and figure of the paper's
// evaluation section (`cmd/experiments -list` prints the index). Each
// experiment is a named runner writing a text rendition of the paper
// artifact; `cmd/experiments` exposes them on the command line and
// bench_test.go wires the cheap ones into testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"github.com/efficientfhe/smartpaf/internal/data"
	"github.com/efficientfhe/smartpaf/internal/nn"
	"github.com/efficientfhe/smartpaf/internal/smartpaf"
)

// Options control experiment scale and output.
type Options struct {
	// Fast shrinks datasets, model widths, training budgets and ring sizes
	// so the full suite completes on a laptop CPU in minutes. Full mode
	// approaches the paper's training budget (hours).
	Fast bool
	Seed int64
	W    io.Writer
}

// Runner executes one experiment.
type Runner func(Options) error

var runners = map[string]Runner{}

func register(id string, r Runner) { runners[id] = r }

// IDs lists the registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(runners))
	for id := range runners {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given id.
func Run(id string, opt Options) error {
	r, ok := runners[id]
	if !ok {
		return fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
	}
	if opt.W == nil {
		return fmt.Errorf("experiments: no output writer")
	}
	if opt.Seed == 0 {
		opt.Seed = 42
	}
	return r(opt)
}

// archKind names the two evaluation models.
type archKind int

const (
	archResNet archKind = iota
	archVGG
)

// testbed bundles a pretrained model factory with its datasets, so every
// ablation config starts from identical weights without re-pretraining.
type testbed struct {
	arch     archKind
	dcfg     data.Config
	width    int
	seed     int64
	train    *data.Dataset
	val      *data.Dataset
	snap     [][]float64
	origAcc  float64
	buildNew func() *nn.Model
}

// resnetBed builds the "ResNet-18 / imagenet-like" testbed.
func resnetBed(opt Options) *testbed {
	dcfg := data.ImageNetLike()
	width := 4
	pretrain := 25
	if opt.Fast {
		// Calibrated so the pretrained model reaches ~89% validation
		// accuracy in ~25s on one core while untuned low-degree PAF
		// replacement still visibly degrades it (the Fig. 7 premise).
		dcfg.Classes = 8
		dcfg.Size = 12
		dcfg.Train = 800
		dcfg.Val = 200
		dcfg.NoiseStd = 0.15
		dcfg.SharedWeight = 0.4
		dcfg.JitterStd = 0.12
		width = 2
		pretrain = 20
	}
	return newTestbed(archResNet, dcfg, width, pretrain, opt.Seed)
}

// vggBed builds the "VGG-19 / cifar-like" testbed. VGG-19's five pooling
// stages require at least 32×32 inputs.
func vggBed(opt Options) *testbed {
	dcfg := data.CIFARLike()
	dcfg.Size = 32
	// Width 1 keeps the full-mode model below the accuracy ceiling (width 2
	// saturates the cifar-like task at 100%, hiding replacement effects).
	width := 1
	pretrain := 15
	if opt.Fast {
		// Calibrated: ~80% validation accuracy after a ~9s pretrain.
		dcfg.Classes = 6
		dcfg.Train = 500
		dcfg.Val = 120
		width = 1
		pretrain = 12
	}
	return newTestbed(archVGG, dcfg, width, pretrain, opt.Seed)
}

func newTestbed(arch archKind, dcfg data.Config, width, pretrainEpochs int, seed int64) *testbed {
	train, val := data.Generate(dcfg)
	tb := &testbed{arch: arch, dcfg: dcfg, width: width, seed: seed, train: train, val: val}
	tb.buildNew = func() *nn.Model {
		switch arch {
		case archVGG:
			return nn.VGG19(width, dcfg.Classes, dcfg.Channels, dcfg.Size, dcfg.Size, seed)
		default:
			return nn.ResNet18(width, dcfg.Classes, dcfg.Channels, dcfg.Size, dcfg.Size, seed)
		}
	}
	m := tb.buildNew()
	smartpaf.Pretrain(m, train, pretrainEpochs, 32, 1e-3, seed)
	tb.snap = m.Snapshot()
	tb.origAcc = accuracy(m, val)
	return tb
}

// fresh returns a model with the pretrained weights.
func (tb *testbed) fresh() *nn.Model {
	m := tb.buildNew()
	if err := m.Restore(tb.snap); err != nil {
		panic(err)
	}
	return m
}

func accuracy(m *nn.Model, ds *data.Dataset) float64 {
	var batches []nn.Batch
	for _, b := range ds.Batches(32, nil) {
		batches = append(batches, nn.Batch{X: b.X, Y: b.Y})
	}
	return nn.Accuracy(m, batches)
}

// pipelineConfig returns the training config scaled for the mode.
func pipelineConfig(form string, opt Options) smartpaf.Config {
	cfg := smartpaf.DefaultConfig(form)
	if opt.Fast {
		cfg.Epochs = 1
		cfg.MaxGroupsPerStep = 1
		cfg.ProfileBatches = 2
	} else {
		cfg.Epochs = 3
		cfg.MaxGroupsPerStep = 2
	}
	cfg.Seed = opt.Seed
	return cfg
}

// formsFor picks the PAF set: a subset in fast mode, Table 2's full list
// otherwise.
func formsFor(opt Options) []string {
	if opt.Fast {
		return []string{"f1f1_g1g1", "f2_g2", "f1_g2"}
	}
	return []string{"f1f1_g1g1", "alpha7", "f2_g3", "f2_g2", "f1_g2"}
}
