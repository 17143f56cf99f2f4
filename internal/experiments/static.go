package experiments

import (
	"fmt"

	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/smartpaf"
)

func init() {
	register("tab1", Table1)
	register("tab2", Table2)
	register("tab5", Table5)
	register("tab8", Table8)
	register("appendixB", AppendixB)
}

// Table2 regenerates the paper's Table 2: PAF forms with their degree and
// multiplication depth, extended with Appendix C's operation counts (which
// hepoly's compiled plan performs). (The paper's degree labels for f1²∘g1² and α=7 are internally
// inconsistent; we report the sum of stage degrees beside the paper's label.)
func Table2(opt Options) error {
	t := newTable("Table 2 — PAF forms, degree and multiplication depth",
		"form", "label", "degree(sum)", "paper degree", "depth", "ct-mults(ReLU)", "const-mults(ReLU)")
	paperDegrees := map[string]string{
		"alpha10": "27", "f1f1_g1g1": "14", "alpha7": "12", "f2_g3": "12", "f2_g2": "10", "f1_g2": "5",
	}
	for _, name := range paf.AllFormsWithBaseline {
		c, err := paf.New(name)
		if err != nil {
			return err
		}
		ops := c.OpsReLU()
		t.addRow(name, c.Label, fmt.Sprint(c.Degree()), paperDegrees[name],
			fmt.Sprint(c.Depth()), fmt.Sprint(ops.CtMults), fmt.Sprint(ops.ConstMults))
	}
	t.write(opt.W)
	return nil
}

// Table5 echoes the training hyperparameters (paper Appendix A).
func Table5(opt Options) error {
	t := newTable("Table 5 — baseline training parameters", "configuration", "value")
	t.addRow("Replaced layer", "ReLU & MaxPooling")
	t.addRow("Optimizer", "Adam")
	t.addRow("learning rate for PAF", fmt.Sprint(smartpaf.LRPAF))
	t.addRow("learning rate for other layers", fmt.Sprint(smartpaf.LRLinear))
	t.addRow("Weight decay for PAF", fmt.Sprint(smartpaf.WDPAF))
	t.addRow("Weight decay for other layers", fmt.Sprint(smartpaf.WDLinear))
	t.addRow("BatchNorm Tracking", "False (batch statistics always)")
	t.addRow("Dropout", "False (enabled by scheduler on overfitting)")
	t.write(opt.W)
	return nil
}

// Table8 regenerates the multiplication-depth walkthrough of f1∘g2
// (paper Table 8 / Fig. 10): the depth at which each intermediate of
// y = f1(x), g2(y) becomes available under exponentiation by squaring with
// folded coefficients.
func Table8(opt Options) error {
	t := newTable("Table 8 / Fig. 10 — f1∘g2 multiplication-depth walkthrough",
		"depth", "intermediates available")
	rows := []struct {
		depth int
		vars  string
	}{
		{0, "x (fresh ciphertext), coefficients c1,c3,d1,d3,d5 (plaintext)"},
		{1, "x² ; c1·x, c3·x (coefficient-folded)"},
		{2, "c3·x³ ; y = f1(x) = c1·x + c3·x³"},
		{3, "y² ; d1·y, d3·y, d5·y"},
		{4, "d3·y³ ; y⁴"},
		{5, "d5·y⁵ ; g2(y) = d1·y + d3·y³ + d5·y⁵"},
	}
	for _, r := range rows {
		t.addRow(fmt.Sprint(r.depth), r.vars)
	}
	t.write(opt.W)

	c := paf.MustNew(paf.FormF1G2)
	fmt.Fprintf(opt.W, "\nstage depths: %v  (f1: ⌈log2(3+1)⌉ = 2, g2: ⌈log2(5+1)⌉ = 3)\n", c.StageDepths())
	fmt.Fprintf(opt.W, "total sign depth: %d   ReLU depth (+1 for x·p(x)): %d\n", c.Depth(), c.DepthReLU())
	return nil
}

// AppendixB validates and summarizes the embedded post-training coefficient
// tables (paper Tables 6, 7, 9, 10, 11): per layer, the sign error of the
// published tuned PAF on the central band.
func AppendixB(opt Options) error {
	forms := []string{paf.FormF1G2, paf.FormF2G2, paf.FormF2G3, paf.FormF1F1G1G1}
	t := newTable("Appendix B — published per-layer tuned coefficients (ResNet-18/ImageNet-1k)",
		"form", "layers", "mean sign err |x|∈[0.3,1]", "max sign err |x|∈[0.3,1]")
	for _, name := range forms {
		layers := paf.PaperTunedLayers(name)
		var sum, worst float64
		for layer := 0; layer < layers; layer++ {
			c, err := paf.PaperTuned(name, layer)
			if err != nil {
				return err
			}
			e := c.SignError(0.3, 200)
			sum += e
			if e > worst {
				worst = e
			}
		}
		t.addRow(name, fmt.Sprint(layers), fmt.Sprintf("%.3f", sum/float64(layers)), fmt.Sprintf("%.3f", worst))
	}
	t.write(opt.W)
	fmt.Fprintf(opt.W, "\nα=7 shared minimax coefficients (Table 7): stage1 %v, stage2 %v\n",
		paf.Alpha7Stage1().Coeffs, paf.Alpha7Stage2().Coeffs)
	return nil
}

// Table1 echoes the paper's qualitative comparison with prior work and maps
// each SMART-PAF checkmark to the measurement in this repository that backs
// it.
func Table1(opt Options) error {
	t := newTable("Table 1 — comparison with prior approaches",
		"approach", "low communication", "low accuracy degradation", "low latency")
	t.addRow("SafeNet, CryptoGCN (partial replacement + hybrid)", "no", "no", "yes")
	t.addRow("CryptoNet, CryptoDL, LoLa, CHE (low-degree PAF)", "no", "no", "yes")
	t.addRow("F1, CraterLake, BTS (27-degree PAF on accelerators)", "yes", "yes", "no")
	t.addRow("HEAX, Delphi, Gazelle, Cheetah (hybrid schemes)", "no", "no", "yes")
	t.addRow("SHE (TFHE)", "yes", "yes", "no")
	t.addRow("SMART-PAF (this work)", "yes", "yes", "yes")
	t.write(opt.W)
	fmt.Fprintln(opt.W, `
Backing measurements in this repository:
  low communication:        the deployed model is pure FHE (nn.CheckFHECompatible;
                            examples/private_mlp never leaves the encrypted domain)
  low accuracy degradation: Table 3 / Fig. 1 (SMART-PAF SS ≈ original accuracy)
  low latency:              Table 4 (3.5x–15x measured speedup over the 27-degree PAF)`)
	return nil
}
