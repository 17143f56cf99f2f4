package smartpaf

import (
	"fmt"

	"github.com/efficientfhe/smartpaf/internal/paf"
)

// Config selects the PAF form and which SMART-PAF techniques are active —
// the axes of the Table 3 ablation.
type Config struct {
	// Form names the PAF (see internal/paf.AllFormsWithBaseline).
	Form string

	// CT enables Coefficient Tuning initialization (paper §4.2).
	CT bool
	// PA enables Progressive Approximation: one slot per step (paper §4.3).
	// When false, all slots are replaced at once (the baseline's "direct
	// replacement").
	PA bool
	// AT enables Alternate Training: training groups alternate between PAF
	// coefficients and linear-layer parameters (paper §4.4). When false,
	// both groups train jointly ("direct training").
	AT bool

	// ReplaceMaxPool selects the "replace all non-polynomial" rows of
	// Table 3 (vs. ReLU-only when false).
	ReplaceMaxPool bool

	// DirectProgressiveTraining emulates Fig. 8's worst-performing ablation
	// ("direct replacement + progressive training"): all slots are replaced
	// upfront, but each training step may only adjust one slot's PAF
	// coefficients, in inference order. Only meaningful with PA=false.
	DirectProgressiveTraining bool

	// Training-group shape (Fig. 6): E epochs per group, with SWA across the
	// group, bounded by MaxGroupsPerStep for CPU budgets.
	Epochs           int
	MaxGroupsPerStep int

	// ProfileBatches bounds how many batches profiling (CT's histogram and
	// the running max) reads.
	ProfileBatches int

	Seed int64
}

// The paper's fixed training recipe.
const (
	// BatchSize is the minibatch of pretraining, profiling, fine-tuning and
	// every accuracy measurement.
	BatchSize = 32

	// Table 5: Adam's learning rate and weight decay for the PAF
	// coefficients and for the other (linear) layers.
	LRPAF, WDPAF       = 1e-4, 0.01
	LRLinear, WDLinear = 1e-5, 0.1

	// profileBins is the resolution of the histogram CT fits against.
	profileBins = 64

	// minDelta is the accuracy improvement the Fig. 6 detector counts as
	// progress.
	minDelta = 1e-4
)

// DefaultConfig returns all techniques on, with a CPU-scale training-group
// shape.
func DefaultConfig(form string) Config {
	return Config{
		Form:             form,
		CT:               true,
		PA:               true,
		AT:               true,
		ReplaceMaxPool:   true,
		Epochs:           3, // the paper uses E=20; scaled for CPU budgets
		MaxGroupsPerStep: 2,
		ProfileBatches:   4,
		Seed:             42,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if _, err := paf.New(c.Form); err != nil {
		return err
	}
	if c.Epochs < 1 || c.MaxGroupsPerStep < 1 {
		return fmt.Errorf("smartpaf: non-positive training-group shape %+v", c)
	}
	return nil
}

// TechniquesLabel renders the active techniques in the Table 3 row style.
func (c Config) TechniquesLabel() string {
	label := "baseline"
	if c.CT {
		label += " + CT"
	}
	if c.PA {
		label += " + PA"
	}
	if c.AT {
		label += " + AT"
	}
	return label
}
