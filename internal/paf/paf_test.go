package paf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOddPolyEvalMatchesDirect(t *testing.T) {
	p := NewOddPoly([]float64{1.5, -0.5, 0.25})
	for _, x := range []float64{-2, -0.7, 0, 0.3, 1.9} {
		want := 1.5*x - 0.5*x*x*x + 0.25*math.Pow(x, 5)
		if got := p.Eval(x); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Eval(%g) = %g want %g", x, got, want)
		}
	}
	if p.Degree() != 5 {
		t.Fatalf("Degree = %d", p.Degree())
	}
}

func TestOddPolyDerivNumerical(t *testing.T) {
	p := NewOddPoly([]float64{2.1, -1.3, 0.4, -0.05})
	const h = 1e-6
	for _, x := range []float64{-1.1, -0.2, 0.5, 1.3} {
		num := (p.Eval(x+h) - p.Eval(x-h)) / (2 * h)
		if got := p.Deriv(x); math.Abs(got-num) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("Deriv(%g) = %g, numerical %g", x, got, num)
		}
	}
}

func TestOddPolyIsOddProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(func(c1, c3 float64, x float64) bool {
		c1 = math.Mod(c1, 10)
		c3 = math.Mod(c3, 10)
		x = math.Mod(x, 3)
		p := NewOddPoly([]float64{c1, c3})
		return math.Abs(p.Eval(-x)+p.Eval(x)) < 1e-9*(1+math.Abs(p.Eval(x)))
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestDepthOfDegree(t *testing.T) {
	cases := map[int]int{1: 1, 3: 2, 5: 3, 7: 3, 9: 4, 13: 4, 15: 4, 27: 5, 31: 5}
	for deg, want := range cases {
		if got := DepthOfDegree(deg); got != want {
			t.Errorf("DepthOfDegree(%d) = %d want %d", deg, got, want)
		}
	}
	if DepthOfDegree(0) != 0 {
		t.Error("DepthOfDegree(0) != 0")
	}
}

// TestTable2Depths pins the multiplication-depth row of the paper's Table 2.
func TestTable2Depths(t *testing.T) {
	want := map[string]int{
		FormAlpha10:  10,
		FormF1F1G1G1: 8,
		FormAlpha7:   6,
		FormF2G3:     6,
		FormF2G2:     6,
		FormF1G2:     5,
	}
	for name, depth := range want {
		c := MustNew(name)
		if got := c.Depth(); got != depth {
			t.Errorf("%s: depth %d want %d (Table 2)", name, got, depth)
		}
	}
}

// TestTable2Degrees pins the degree bookkeeping (sum of stage degrees; the
// two rows where the paper's labels are internally inconsistent are marked
// below).
func TestTable2Degrees(t *testing.T) {
	want := map[string]int{
		FormAlpha10:  27,
		FormF1F1G1G1: 12, // paper labels this 14-degree
		FormAlpha7:   14, // paper table says 12, appendix Eq. 5 gives 7+7
		FormF2G3:     12,
		FormF2G2:     10,
		FormF1G2:     8,
	}
	for name, deg := range want {
		if got := MustNew(name).Degree(); got != deg {
			t.Errorf("%s: degree %d want %d", name, got, deg)
		}
	}
}

func TestUntunedFormsApproximateSign(t *testing.T) {
	// Untuned forms are coarse at low |x| but must be sign-like on the bulk
	// of the range; higher-precision forms must be strictly better.
	errs := map[string]float64{}
	for _, name := range AllFormsWithBaseline {
		c := MustNew(name)
		errs[name] = c.SignError(0.3, 500)
		if errs[name] > 0.75 {
			t.Errorf("%s: sign error %g on |x|∈[0.3,1] too large", name, errs[name])
		}
	}
	if errs[FormAlpha10] >= errs[FormF1G2] {
		t.Errorf("27-degree baseline (%g) should beat f1∘g2 (%g)", errs[FormAlpha10], errs[FormF1G2])
	}
}

func TestAlpha10HighPrecision(t *testing.T) {
	c := MustNew(FormAlpha10)
	if e := c.SignError(0.02, 2000); e > 1e-3 {
		t.Fatalf("α=10 sign error %g on |x|∈[0.02,1]", e)
	}
	if len(c.Stages) != 3 {
		t.Fatalf("α=10 should have 3 stages")
	}
}

func TestNewUnknownForm(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Fatal("expected error for unknown form")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustNew(FormF1G2)
	b := a.Clone()
	b.Stages[0].Coeffs[0] = 99
	if a.Stages[0].Coeffs[0] == 99 {
		t.Fatal("clone shares coefficient storage")
	}
}

func TestReLUApproximation(t *testing.T) {
	c := MustNew(FormAlpha7)
	for _, x := range []float64{-1, -0.5, -0.2, 0.2, 0.5, 1} {
		want := math.Max(0, x)
		if got := c.ReLU(x); math.Abs(got-want) > 0.07 {
			t.Errorf("ReLU(%g) = %g want ≈%g", x, got, want)
		}
	}
}

func TestMaxApproximation(t *testing.T) {
	c := MustNew(FormAlpha7)
	cases := [][2]float64{{0.9, 0.1}, {-0.5, 0.5}, {0.3, 0.31}, {-0.9, -0.2}}
	for _, xy := range cases {
		want := math.Max(xy[0], xy[1])
		if got := c.Max(xy[0], xy[1]); math.Abs(got-want) > 0.08 {
			t.Errorf("Max(%g,%g) = %g want ≈%g", xy[0], xy[1], got, want)
		}
	}
}

func TestEvalWithGradNumerical(t *testing.T) {
	c := MustNew(FormF2G2)
	const h = 1e-6
	for _, x := range []float64{-0.8, -0.3, 0.4, 0.9} {
		y, dx, dc := c.EvalWithGrad(x)
		if math.Abs(y-c.Eval(x)) > 1e-12 {
			t.Fatalf("value mismatch at %g", x)
		}
		num := (c.Eval(x+h) - c.Eval(x-h)) / (2 * h)
		if math.Abs(dx-num) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("dx at %g: got %g num %g", x, dx, num)
		}
		// Coefficient gradients vs finite differences.
		for si, stage := range c.Stages {
			for k := range stage.Coeffs {
				cc := c.Clone()
				cc.Stages[si].Coeffs[k] += h
				num := (cc.Eval(x) - y) / h
				if math.Abs(dc[si][k]-num) > 1e-3*(1+math.Abs(num)) {
					t.Fatalf("dc[%d][%d] at x=%g: got %g num %g", si, k, x, dc[si][k], num)
				}
			}
		}
	}
}

func TestReLUWithGradNumerical(t *testing.T) {
	c := MustNew(FormF1G2)
	const h = 1e-6
	for _, x := range []float64{-0.7, 0.2, 0.8} {
		y, dx, dc := c.ReLUWithGrad(x)
		if math.Abs(y-c.ReLU(x)) > 1e-12 {
			t.Fatal("relu value mismatch")
		}
		num := (c.ReLU(x+h) - c.ReLU(x-h)) / (2 * h)
		if math.Abs(dx-num) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("relu dx at %g: got %g num %g", x, dx, num)
		}
		cc := c.Clone()
		cc.Stages[1].Coeffs[0] += h
		numc := (cc.ReLU(x) - y) / h
		if math.Abs(dc[1][0]-numc) > 1e-3*(1+math.Abs(numc)) {
			t.Fatalf("relu dc at %g: got %g num %g", x, dc[1][0], numc)
		}
	}
}

func TestMaxWithGradNumerical(t *testing.T) {
	c := MustNew(FormF1G2)
	const h = 1e-6
	x, y := 0.4, -0.2
	m, dx, dy, dc := c.MaxWithGrad(x, y)
	if math.Abs(m-c.Max(x, y)) > 1e-12 {
		t.Fatal("max value mismatch")
	}
	numx := (c.Max(x+h, y) - c.Max(x-h, y)) / (2 * h)
	numy := (c.Max(x, y+h) - c.Max(x, y-h)) / (2 * h)
	if math.Abs(dx-numx) > 1e-4 || math.Abs(dy-numy) > 1e-4 {
		t.Fatalf("max grads: got (%g,%g) num (%g,%g)", dx, dy, numx, numy)
	}
	cc := c.Clone()
	cc.Stages[0].Coeffs[1] += h
	numc := (cc.Max(x, y) - m) / h
	if math.Abs(dc[0][1]-numc) > 1e-3 {
		t.Fatalf("max coeff grad: got %g num %g", dc[0][1], numc)
	}
}

func TestPaperTunedTablesComplete(t *testing.T) {
	for _, name := range []string{FormF1G2, FormF2G2, FormF2G3, FormF1F1G1G1} {
		if n := PaperTunedLayers(name); n != 17 {
			t.Errorf("%s: %d published layers, want 17 (ResNet-18 ReLU count)", name, n)
		}
	}
	if PaperTunedLayers(FormAlpha10) != 0 {
		t.Error("alpha10 should have no published table")
	}
}

// TestPaperTunedCoefficientsAreSignLike validates every published layer's
// tuned PAF: on the post-CT high-probability range it must behave as a sign
// approximation (this is the property Coefficient Tuning optimizes for).
func TestPaperTunedCoefficientsAreSignLike(t *testing.T) {
	for _, name := range []string{FormF1G2, FormF2G2, FormF2G3, FormF1F1G1G1} {
		for layer := 0; layer < PaperTunedLayers(name); layer++ {
			c, err := PaperTuned(name, layer)
			if err != nil {
				t.Fatalf("%s layer %d: %v", name, layer, err)
			}
			// Tuned PAFs concentrate accuracy on the profiled range; check
			// sign-like behaviour on the central band.
			for _, x := range []float64{0.3, 0.5, 0.7} {
				if v := c.Eval(x); v < 0.5 || v > 1.5 {
					t.Errorf("%s layer %d: p(%g) = %g not sign-like", name, layer, x, v)
				}
				if v := c.Eval(-x); v > -0.5 || v < -1.5 {
					t.Errorf("%s layer %d: p(-%g) = %g not sign-like", name, layer, x, v)
				}
			}
		}
	}
}

func TestPaperTunedFallbacks(t *testing.T) {
	// alpha7 has a single shared table-less composite: falls back untuned.
	c, err := PaperTuned(FormAlpha7, 3)
	if err != nil {
		t.Fatal(err)
	}
	base := MustNew(FormAlpha7)
	if c.Stages[0].Coeffs[0] != base.Stages[0].Coeffs[0] {
		t.Fatal("expected untuned fallback")
	}
	// Out-of-range layer falls back too.
	if _, err := PaperTuned(FormF1G2, 99); err != nil {
		t.Fatal(err)
	}
}

func TestOpsCounts(t *testing.T) {
	// f1: degree 3 = {x²:1 ctmult} + term x (1 const) + term x³ (1 const, 1 ct).
	f1 := &Composite{Name: "f1", Stages: []*OddPoly{F1()}}
	oc := f1.Ops()
	if oc.CtMults != 2 || oc.ConstMults != 2 {
		t.Fatalf("f1 ops = %+v", oc)
	}
	// ReLU adds one ct mult and one const mult.
	ocr := f1.OpsReLU()
	if ocr.CtMults != oc.CtMults+1 || ocr.ConstMults != oc.ConstMults+1 {
		t.Fatalf("relu ops = %+v", ocr)
	}
	// Higher degree forms must cost strictly more ct mults.
	if MustNew(FormAlpha10).Ops().CtMults <= MustNew(FormF1G2).Ops().CtMults {
		t.Fatal("27-degree should cost more ct mults than f1∘g2")
	}
}

func TestStageDepths(t *testing.T) {
	c := MustNew(FormF1G2)
	d := c.StageDepths()
	if len(d) != 2 || d[0] != 2 || d[1] != 3 {
		t.Fatalf("f1∘g2 stage depths = %v want [2 3] (paper Table 8)", d)
	}
	if c.DepthReLU() != 6 {
		t.Fatalf("f1∘g2 ReLU depth = %d want 6", c.DepthReLU())
	}
}
