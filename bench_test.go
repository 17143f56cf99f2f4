// Package smartpaf_bench times the units the paper side's tables are made of:
// Coefficient Tuning (Fig. 7), one training pipeline (Table 3), the plaintext
// PAF and one fine-tuning step. Run with
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured discussion. The tables
// themselves are pinned by golden files in internal/experiments. Table 4 and
// Fig. 1 price each PAF's encrypted ReLU on its own selected ring, so they
// are the tab4 and fig1 experiments and examples/pareto, not a fixed-ring
// benchmark here. The serving stack and its substrate (NTT, rotations,
// linear layers, the scheduler) are measured by hennbench, bench/.
package smartpaf_bench

import (
	"testing"

	"github.com/efficientfhe/smartpaf/internal/data"
	"github.com/efficientfhe/smartpaf/internal/nn"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/smartpaf"
)

// --- the PAF plaintext hot path ---------------------------------------------

func BenchmarkPAFReLUPlaintext(b *testing.B) {
	c := paf.MustNew(paf.FormF1F1G1G1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.ReLU(0.37)
	}
}

// --- Fig. 7: Coefficient Tuning ---------------------------------------------

func BenchmarkFig7CT(b *testing.B) {
	prof := &smartpaf.Profile{Bins: make([]float64, 64), Max: 1}
	for i := range prof.Bins {
		x := prof.BinCenter(i)
		prof.Bins[i] = 1 / (1 + 25*x*x)
	}
	c := paf.MustNew(paf.FormF1G2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = smartpaf.CoefficientTuning(c, prof)
	}
}

// --- Fig. 8 / Fig. 9 / Table 3: the training pipeline ------------------------

// benchPipeline runs one full SMART-PAF pipeline on the tiny task; it is the
// unit of work behind Table 3 cells, Fig. 8 bars and Fig. 9 curves.
func benchPipeline(b *testing.B, ct, pa, at bool) {
	dcfg := data.Tiny()
	train, val := data.Generate(dcfg)
	base := nn.CNN7(2, dcfg.Classes, dcfg.Channels, dcfg.Size, dcfg.Size, 7)
	smartpaf.Pretrain(base, train, 3, 3e-3, 1)
	snap := base.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := nn.CNN7(2, dcfg.Classes, dcfg.Channels, dcfg.Size, dcfg.Size, 7)
		if err := m.Restore(snap); err != nil {
			b.Fatal(err)
		}
		cfg := smartpaf.DefaultConfig(paf.FormF1G2)
		cfg.CT, cfg.PA, cfg.AT = ct, pa, at
		cfg.Epochs, cfg.MaxGroupsPerStep, cfg.ProfileBatches = 1, 1, 1
		p, err := smartpaf.NewPipeline(m, train, val, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Baseline(b *testing.B) { benchPipeline(b, false, false, false) }
func BenchmarkTable3SmartPAF(b *testing.B) { benchPipeline(b, true, true, true) }

// --- nn training step (the unit of every fine-tuning epoch) -----------------

func BenchmarkResNet18TrainStep(b *testing.B) {
	dcfg := data.Tiny()
	train, _ := data.Generate(dcfg)
	m := nn.ResNet18(2, dcfg.Classes, dcfg.Channels, dcfg.Size, dcfg.Size, 7)
	batch := train.Batches(16, nil)[0]
	opt := nn.NewAdam(1e-3, 1e-4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.TrainStep(m, batch, nil, opt)
	}
}
