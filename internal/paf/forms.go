package paf

import (
	"fmt"
	"sync"

	"github.com/efficientfhe/smartpaf/internal/minimax"
)

// Base polynomials of Cheon et al. 2020 ("Efficient homomorphic comparison
// methods with optimal complexity"). The g-family constants are the
// published 2^-10-denominator values; they appear verbatim as the untuned
// initializations in the paper's Appendix B (e.g. f2 = 1.875x - 1.25x³ +
// 0.375x⁵ at layer 6 of Table 10).

// F1 returns f1(x) = (3/2)x - (1/2)x³.
func F1() *OddPoly { return NewOddPoly([]float64{1.5, -0.5}) }

// F2 returns f2(x) = (15/8)x - (10/8)x³ + (3/8)x⁵.
func F2() *OddPoly { return NewOddPoly([]float64{15.0 / 8, -10.0 / 8, 3.0 / 8}) }

// G1 returns g1(x) = (2126x - 1359x³)/2^10.
func G1() *OddPoly { return NewOddPoly([]float64{2126.0 / 1024, -1359.0 / 1024}) }

// G2 returns g2(x) = (3334x - 6108x³ + 3796x⁵)/2^10.
func G2() *OddPoly { return NewOddPoly([]float64{3334.0 / 1024, -6108.0 / 1024, 3796.0 / 1024}) }

// G3 returns g3(x) = (4589x - 16577x³ + 25614x⁵ - 12860x⁷)/2^10.
func G3() *OddPoly {
	return NewOddPoly([]float64{4589.0 / 1024, -16577.0 / 1024, 25614.0 / 1024, -12860.0 / 1024})
}

// Alpha7Stage1 and Alpha7Stage2 are the minimax composite p7 = p7,2 ∘ p7,1
// of Lee et al. 2021 with the published coefficients (paper Table 7,
// odd-degree entries only per Appendix B.1).
func Alpha7Stage1() *OddPoly {
	return NewOddPoly([]float64{7.304451, -34.68258667, 59.85965347, -31.87552261})
}

// Alpha7Stage2 is the outer refinement stage of the α=7 composite.
func Alpha7Stage2() *OddPoly {
	return NewOddPoly([]float64{2.400856, -2.631254435, 1.549126744, -0.331172943})
}

// Form names used throughout the repository (Table 2 columns).
const (
	FormAlpha10  = "alpha10"   // 27-degree minimax baseline (Lee et al.)
	FormF1F1G1G1 = "f1f1_g1g1" // f1²∘g1², the paper's 14-degree sweet spot
	FormAlpha7   = "alpha7"    // α=7 minimax composite
	FormF2G3     = "f2_g3"
	FormF2G2     = "f2_g2"
	FormF1G2     = "f1_g2"
)

// AllForms lists the PAF forms of Table 2 in descending degree order
// (the order used by every experiment table in the paper).
var AllForms = []string{FormF1F1G1G1, FormAlpha7, FormF2G3, FormF2G2, FormF1G2}

// AllFormsWithBaseline prepends the 27-degree α=10 baseline.
var AllFormsWithBaseline = append([]string{FormAlpha10}, AllForms...)

var (
	alpha10Once   sync.Once
	alpha10Stages [][]float64
	alpha10Err    error
)

// alpha10StagesCompute generates the 27-degree minimax composite with
// component degrees (13,7,7): depth 4+3+3 = 10 and summed degree 27,
// matching Table 2's α=10 row. The paper takes this polynomial from Lee et
// al. 2021; we regenerate it with our own Remez implementation
// (internal/minimax). The greedy stage-wise composition converges sharply
// for eps ≥ 0.02, where it reaches error below 2^-12 on |x| ∈ [0.02, 1] —
// comfortably exceeding the α=10 precision target on the range that matters
// after Dynamic Scaling normalizes PAF inputs into [-1, 1]. (Empirically the
// paper's own published α=7 composite has max error 0.86 near its lower
// domain edge, so a precise tail at |x| < 0.02 is not what distinguishes the
// baseline; see EXPERIMENTS.md.)
func alpha10StagesCompute() {
	alpha10Stages, _, alpha10Err = minimax.CompositeSign([]int{13, 7, 7}, 0.02)
}

// New builds a fresh Composite for the named form with its canonical
// (untuned) initialization.
func New(name string) (*Composite, error) {
	switch name {
	case FormF1G2:
		return &Composite{Name: name, Label: "f1∘g2 (8-degree, depth 5)", Stages: []*OddPoly{F1(), G2()}}, nil
	case FormF2G2:
		return &Composite{Name: name, Label: "f2∘g2 (10-degree, depth 6)", Stages: []*OddPoly{F2(), G2()}}, nil
	case FormF2G3:
		return &Composite{Name: name, Label: "f2∘g3 (12-degree, depth 6)", Stages: []*OddPoly{F2(), G3()}}, nil
	case FormAlpha7:
		return &Composite{Name: name, Label: "α=7 (14-degree, depth 6)", Stages: []*OddPoly{Alpha7Stage1(), Alpha7Stage2()}}, nil
	case FormF1F1G1G1:
		return &Composite{Name: name, Label: "f1²∘g1² (paper: 14-degree, depth 8)", Stages: []*OddPoly{F1(), F1(), G1(), G1()}}, nil
	case FormAlpha10:
		alpha10Once.Do(alpha10StagesCompute)
		if alpha10Err != nil {
			return nil, fmt.Errorf("paf: generating α=10 composite: %w", alpha10Err)
		}
		stages := make([]*OddPoly, len(alpha10Stages))
		for i, c := range alpha10Stages {
			stages[i] = NewOddPoly(c)
		}
		return &Composite{Name: name, Label: "α=10 (27-degree, depth 10)", Stages: stages}, nil
	default:
		return nil, fmt.Errorf("paf: unknown form %q (known: %v)", name, AllFormsWithBaseline)
	}
}

// MustNew is New for static form names; it panics on unknown names.
func MustNew(name string) *Composite {
	c, err := New(name)
	if err != nil {
		panic(err)
	}
	return c
}

// PaperTuned returns the post-training per-layer composite for the given
// form and ReLU layer index (0..16 for ResNet-18), built from the published
// Appendix B tables. Forms without a published table (alpha10) or layer
// indices outside the table fall back to the untuned composite.
func PaperTuned(name string, layer int) (*Composite, error) {
	base, err := New(name)
	if err != nil {
		return nil, err
	}
	table, ok := paperTunedTables[name]
	if !ok {
		return base, nil
	}
	if layer < 0 || layer >= len(table) {
		return base, nil
	}
	stages := table[layer]
	if len(stages) != len(base.Stages) {
		return nil, fmt.Errorf("paf: table for %q layer %d has %d stages, form has %d",
			name, layer, len(stages), len(base.Stages))
	}
	for i, sc := range stages {
		if len(sc) != len(base.Stages[i].Coeffs) {
			return nil, fmt.Errorf("paf: table for %q layer %d stage %d has %d coeffs, want %d",
				name, layer, i, len(sc), len(base.Stages[i].Coeffs))
		}
		base.Stages[i] = NewOddPoly(sc)
	}
	return base, nil
}

// PaperTunedLayers returns how many per-layer coefficient rows the paper
// publishes for the form (0 if none).
func PaperTunedLayers(name string) int { return len(paperTunedTables[name]) }
