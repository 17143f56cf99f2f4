package smartpaf

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/data"
	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/nn"
	"github.com/efficientfhe/smartpaf/internal/paf"
)

// tinySetup pretrains a small CNN on the tiny synthetic task.
func tinySetup(t testing.TB, pretrainEpochs int) (*nn.Model, *data.Dataset, *data.Dataset) {
	t.Helper()
	cfg := data.Tiny()
	train, val := data.Generate(cfg)
	m := nn.CNN7(2, cfg.Classes, cfg.Channels, cfg.Size, cfg.Size, 7)
	Pretrain(m, train, pretrainEpochs, 3e-3, 1)
	return m, train, val
}

func testConfig(form string) Config {
	cfg := DefaultConfig(form)
	cfg.Epochs = 1
	cfg.MaxGroupsPerStep = 1
	cfg.ProfileBatches = 2
	return cfg
}

func TestProfileSlots(t *testing.T) {
	m, train, _ := tinySetup(t, 1)
	profiles := ProfileSlots(m, train, 2)
	if len(profiles) != len(m.Slots()) {
		t.Fatalf("%d profiles for %d slots", len(profiles), len(m.Slots()))
	}
	for i, p := range profiles {
		if p.N == 0 {
			t.Fatalf("profile %d saw no data", i)
		}
		if p.Max <= 0 {
			t.Fatalf("profile %d has non-positive max", i)
		}
		var mass float64
		for _, b := range p.Bins {
			mass += b
		}
		if mass == 0 {
			t.Fatalf("profile %d histogram empty", i)
		}
		w := p.Weights()
		var sum float64
		for _, v := range w {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("profile %d weights sum to %g", i, sum)
		}
	}
	// Probes must be removed: a second forward shouldn't change N.
	n0 := profiles[0].N
	b := train.Batches(BatchSize, nil)[0]
	m.Forward(b.X, false)
	if profiles[0].N != n0 {
		t.Fatal("probe not removed after profiling")
	}
}

func TestProfileBinCenters(t *testing.T) {
	p := &Profile{Bins: make([]float64, 4)}
	want := []float64{-0.75, -0.25, 0.25, 0.75}
	for i, w := range want {
		if got := p.BinCenter(i); math.Abs(got-w) > 1e-12 {
			t.Fatalf("BinCenter(%d) = %g want %g", i, got, w)
		}
	}
}

// TestCoefficientTuningImprovesWeightedError is the core CT claim: tuning on
// a profiled distribution reduces the weighted sign error (Fig. 3/Fig. 7).
func TestCoefficientTuningImprovesWeightedError(t *testing.T) {
	// A narrow distribution concentrated around ±0.3.
	prof := &Profile{Bins: make([]float64, 64), Max: 1}
	for i := range prof.Bins {
		x := prof.BinCenter(i)
		prof.Bins[i] = math.Exp(-(math.Abs(x)-0.3)*(math.Abs(x)-0.3)/0.02) + 0.01
	}
	for _, form := range []string{paf.FormF1G2, paf.FormF2G2, paf.FormF1F1G1G1} {
		c := paf.MustNew(form)
		before := WeightedReLUError(c, prof)
		tuned := CoefficientTuning(c, prof)
		after := WeightedReLUError(tuned, prof)
		if after >= before {
			t.Errorf("%s: CT did not reduce weighted error: %g -> %g", form, before, after)
		}
		// The input composite must be untouched.
		if c.Stages[0].Coeffs[0] != paf.MustNew(form).Stages[0].Coeffs[0] {
			t.Errorf("%s: CT mutated its input", form)
		}
	}
}

// TestTunedCoefficientsGolden pins profiling and Coefficient Tuning to the
// last bit: every slot's profiled max and its tuned f1∘g2 coefficients on a
// tiny CNN7, against testdata/golden/tuned_coeffs.txt. Accuracies move in
// steps of one sample; these numbers move with any change to the batch
// size, the bin count or CT's optimizer.
func TestTunedCoefficientsGolden(t *testing.T) {
	m, train, _ := tinySetup(t, 1)
	var b strings.Builder
	for i, prof := range ProfileSlots(m, train, 2) {
		fmt.Fprintf(&b, "slot %d max %v\n", i, prof.Max)
		for si, st := range CoefficientTuning(paf.MustNew(paf.FormF1G2), prof).Stages {
			fmt.Fprintf(&b, "  stage %d %v\n", si, st.Coeffs)
		}
	}
	compareGolden(t, "tuned_coeffs.txt", b.String())
}

// compareGolden compares got with testdata/golden/<name>. To re-pin after an
// intended change, copy the "got" block into the file.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatalf("%v\ngot:\n%s", err, got)
	}
	if got != string(want) {
		t.Errorf("%s differs from testdata/golden/%s; got:\n%s", name, name, got)
	}
}

// TestCTBenefitLargerForLowDegree pins the Fig. 7 trend: CT helps low-degree
// PAFs (f1∘g2) more than high-degree ones (α=7) in relative terms.
func TestCTBenefitLargerForLowDegree(t *testing.T) {
	prof := &Profile{Bins: make([]float64, 64), Max: 1}
	for i := range prof.Bins {
		x := prof.BinCenter(i)
		prof.Bins[i] = math.Exp(-x*x/0.08) + 0.005
	}
	ratio := func(form string) float64 {
		c := paf.MustNew(form)
		before := WeightedReLUError(c, prof)
		after := WeightedReLUError(CoefficientTuning(c, prof), prof)
		if after == 0 {
			after = 1e-12
		}
		return before / after
	}
	low := ratio(paf.FormF1G2)
	high := ratio(paf.FormAlpha7)
	if low <= high {
		t.Fatalf("expected larger CT gain for f1∘g2 (%gx) than α=7 (%gx)", low, high)
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig("nonsense")
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected invalid form error")
	}
	cfg = DefaultConfig(paf.FormF1G2)
	cfg.Epochs = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected invalid epochs error")
	}
}

func TestTechniquesLabel(t *testing.T) {
	cfg := Config{CT: true, AT: true}
	if got := cfg.TechniquesLabel(); got != "baseline + CT + AT" {
		t.Fatalf("label %q", got)
	}
	if got := (Config{}).TechniquesLabel(); got != "baseline" {
		t.Fatalf("label %q", got)
	}
}

// TestPipelineSmartPAFRun runs the full pipeline on a tiny CNN7 and pins the
// whole Result — every accuracy, curve point and event — against
// testdata/golden/pipeline_run.txt.
func TestPipelineSmartPAFRun(t *testing.T) {
	m, train, val := tinySetup(t, 2)
	cfg := testConfig(paf.FormF1G2)
	res, err := Run(m, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every slot must be replaced afterwards.
	for _, s := range m.Slots() {
		if s.PAFLayer() == nil {
			t.Fatalf("slot %d not replaced", s.Index)
		}
	}
	// Replace events: one per slot under PA.
	replaceEvents := 0
	for _, e := range res.Events {
		if e.Kind == EventReplace {
			replaceEvents++
		}
	}
	if replaceEvents != len(m.Slots()) {
		t.Fatalf("%d replace events for %d slots", replaceEvents, len(m.Slots()))
	}
	compareGolden(t, "pipeline_run.txt", formatResult(res))
}

// formatResult renders every number a Result carries; %v prints the
// shortest decimal that parses back to the same float64.
func formatResult(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "original %v\ninitial %v\nfinal DS %v\nfinal SS %v\n",
		r.OriginalAcc, r.InitialAcc, r.FinalAccDS, r.FinalAccSS)
	for _, c := range r.Curve {
		fmt.Fprintf(&b, "curve %d train %v val %v\n", c.Epoch, c.TrainAcc, c.ValAcc)
	}
	for _, e := range r.Events {
		fmt.Fprintf(&b, "event %d %s %s\n", e.Epoch, e.Kind, e.Label)
	}
	return b.String()
}

func TestPipelineDirectBaselineRun(t *testing.T) {
	m, train, val := tinySetup(t, 2)
	cfg := testConfig(paf.FormF1G2)
	cfg.CT, cfg.PA, cfg.AT = false, false, false
	res, err := Run(m, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Direct replacement: exactly one replace event.
	replaceEvents := 0
	for _, e := range res.Events {
		if e.Kind == EventReplace {
			replaceEvents++
		}
	}
	if replaceEvents != 1 {
		t.Fatalf("%d replace events, want 1 for direct replacement", replaceEvents)
	}
}

func TestPipelineReLUOnly(t *testing.T) {
	m, train, val := tinySetup(t, 1)
	cfg := testConfig(paf.FormF1G2)
	cfg.ReplaceMaxPool = false
	if _, err := Run(m, train, val, cfg); err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Slots() {
		if s.Kind == nn.SlotMaxPool && s.PAFLayer() != nil {
			t.Fatal("maxpool should not be replaced in ReLU-only mode")
		}
		if s.Kind == nn.SlotReLU && s.PAFLayer() == nil {
			t.Fatal("relu slot not replaced")
		}
	}
}

// TestCTImprovesInitialAccuracyDeepModel is the Fig. 7 shape: on a deep
// model (ResNet-18: 17 cascaded ReLUs where approximation errors compound),
// replacing every non-polynomial operator with an untuned low-degree PAF
// costs accuracy, and Coefficient Tuning recovers a good part of it without
// any fine-tuning. Shallow models do not exhibit the effect (errors do not
// compound), which is exactly the paper's motivation for evaluating on
// deep networks.
func TestCTImprovesInitialAccuracyDeepModel(t *testing.T) {
	if testing.Short() {
		t.Skip("deep-model pretraining in -short mode")
	}
	dcfg := data.Tiny()
	dcfg.Classes = 6
	dcfg.Train = 300
	train, val := data.Generate(dcfg)
	m := nn.ResNet18(2, dcfg.Classes, dcfg.Channels, dcfg.Size, dcfg.Size, 7)
	Pretrain(m, train, 12, 3e-3, 1)
	valBatches := val.Batches(BatchSize, nil)
	orig := nn.Accuracy(m, valBatches)
	profiles := ProfileSlots(m, train, 2)
	replaceAll := func(ct bool) float64 {
		for _, s := range m.Slots() {
			c := paf.MustNew(paf.FormF1G2)
			if ct {
				c = CoefficientTuning(c, profiles[s.Index])
			}
			s.ReplaceWithPAF(c)
		}
		a := nn.Accuracy(m, valBatches)
		for _, s := range m.Slots() {
			s.RestoreExact()
		}
		return a
	}
	untuned := replaceAll(false)
	tuned := replaceAll(true)
	if untuned >= orig {
		t.Logf("note: untuned replacement did not degrade (orig %.3f, untuned %.3f)", orig, untuned)
	}
	if tuned+0.03 < untuned {
		t.Fatalf("CT reduced initial accuracy: %.3f (CT) vs %.3f (no CT), orig %.3f", tuned, untuned, orig)
	}
}

// TestCTGuardProtectsHighDegreeBaseline pins the accept-if-better guard: CT
// must never make the near-perfect 27-degree baseline dramatically worse.
func TestCTGuardProtectsHighDegreeBaseline(t *testing.T) {
	prof := &Profile{Bins: make([]float64, 64), Max: 1}
	for i := range prof.Bins {
		x := prof.BinCenter(i)
		prof.Bins[i] = math.Exp(-x*x/0.02) + 0.001
	}
	c := paf.MustNew(paf.FormAlpha10)
	before := WeightedReLUError(c, prof)
	tuned := CoefficientTuning(c, prof)
	after := WeightedReLUError(tuned, prof)
	if after > before*2+1e-6 {
		t.Fatalf("CT degraded alpha10: %g -> %g", before, after)
	}
}

func TestPipelineRejectsBadConfig(t *testing.T) {
	m, train, val := tinySetup(t, 0)
	cfg := testConfig("bogus")
	if _, err := Run(m, train, val, cfg); err == nil {
		t.Fatal("expected config error")
	}
}

func TestDirectProgressiveTrainingMode(t *testing.T) {
	m, train, val := tinySetup(t, 2)
	cfg := testConfig(paf.FormF1G2)
	cfg.CT, cfg.PA, cfg.AT = false, false, false
	cfg.DirectProgressiveTraining = true
	res, err := Run(m, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All slots replaced at once (one replace event), training split across
	// one step per slot.
	replaceEvents := 0
	for _, e := range res.Events {
		if e.Kind == EventReplace {
			replaceEvents++
		}
	}
	if replaceEvents != 1 {
		t.Fatalf("%d replace events, want 1", replaceEvents)
	}
	// After the run no parameter should remain frozen.
	for _, prm := range m.Params() {
		if prm.Frozen {
			t.Fatalf("parameter %s left frozen", prm.Name)
		}
	}
}

func TestPipelineSSAccuracyPopulated(t *testing.T) {
	// The SS conversion path must produce a usable model with the running
	// maxima captured during training.
	m, train, val := tinySetup(t, 2)
	cfg := testConfig(paf.FormF1F1G1G1)
	res, err := Run(m, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccSS <= 0 {
		t.Fatalf("SS accuracy %.3f should be positive on the tiny task", res.FinalAccSS)
	}
}

// TestRunReturnsDeployedModel: Run hands back the model it measured
// FinalAccSS on — statically scaled and FHE-ready with no further Deploy —
// so a CNN passes the compatibility check and an MLP converts for encrypted
// inference as is (regression: Run switched every slot back to Dynamic
// Scaling before returning, and callers that did not redeploy failed).
func TestRunReturnsDeployedModel(t *testing.T) {
	m, train, val := tinySetup(t, 1)
	if _, err := Run(m, train, val, testConfig(paf.FormF1G2)); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckFHECompatible(); err != nil {
		t.Fatalf("CNN7 after Run: %v", err)
	}

	dcfg := data.Tiny()
	dcfg.Size = 4 // 16 inputs
	dcfg.Train, dcfg.Val = 64, 32
	train, val = data.Generate(dcfg)
	mlp := nn.MLP([]int{16, 8, dcfg.Classes}, 3)
	Pretrain(mlp, train, 2, 3e-3, 1)
	if _, err := Run(mlp, train, val, testConfig(paf.FormF1G2)); err != nil {
		t.Fatal(err)
	}
	if _, err := henn.FromModel(mlp); err != nil {
		t.Fatalf("MLP after Run: %v", err)
	}
}
