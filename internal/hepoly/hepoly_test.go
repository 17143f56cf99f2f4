package hepoly

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/paf"
)

type heContext struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
	eval   *ckks.Evaluator
	he     *Evaluator
}

// newHEContext builds a small insecure-but-structurally-identical context
// with enough levels for the deepest PAF ReLU (alpha10: 10+1 = 11 levels,
// +1 margin).
func newHEContext(t testing.TB) *heContext {
	t.Helper()
	lit := ckks.ParametersLiteral{
		LogN:     8,
		LogQ:     []int{55, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45},
		LogP:     []int{55},
		LogScale: 45,
	}
	params, err := ckks.NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, 99)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	eval := ckks.NewEvaluator(params, rlk)
	return &heContext{
		params: params,
		enc:    ckks.NewEncoder(params),
		encr:   ckks.NewEncryptor(params, pk, 5),
		decr:   ckks.NewDecryptor(params, sk),
		eval:   eval,
		he:     NewEvaluator(eval),
	}
}

func (hc *heContext) encryptReals(t testing.TB, vals []float64) *ckks.Ciphertext {
	t.Helper()
	pt, err := hc.enc.EncodeReals(vals, hc.params.MaxLevel(), hc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	return hc.encr.Encrypt(pt)
}

func (hc *heContext) decryptReals(ct *ckks.Ciphertext) []float64 {
	return hc.enc.DecodeReals(hc.decr.Decrypt(ct))
}

func testVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()*2 - 1
	}
	return out
}

func maxAbsDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// oneStage is the composite of the single odd polynomial with these
// coefficients.
func oneStage(coeffs ...float64) *paf.Composite {
	return &paf.Composite{Name: "p", Stages: []*paf.OddPoly{paf.NewOddPoly(coeffs)}}
}

// checkReLU encrypts vals, runs ReLUScaled(c, ·, gamma) and holds the result
// to gamma·c.ReLU within tol, to DepthReLU() levels, and to the scale the
// plan promises: every stage lands at the input's scale, so the x·p(x)
// product sits at exactly ct.Scale²/q.
func (hc *heContext) checkReLU(t *testing.T, c *paf.Composite, vals []float64, gamma, tol float64) *ckks.Ciphertext {
	t.Helper()
	ct := hc.encryptReals(t, vals)
	out, err := hc.he.ReLUScaled(c, ct, gamma)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	want := make([]float64, len(vals))
	for i, v := range vals {
		want[i] = gamma * c.ReLU(v)
	}
	if d := maxAbsDiff(want, hc.decryptReals(out)); d > tol {
		t.Errorf("%s (degree %d): encrypted vs plaintext error %g", c.Name, c.Degree(), d)
	}
	if got := ct.Level - out.Level; got != c.DepthReLU() {
		t.Errorf("%s (degree %d): consumed %d levels, want DepthReLU %d", c.Name, c.Degree(), got, c.DepthReLU())
	}
	if want := ct.Scale * ct.Scale / float64(hc.params.Q()[out.Level+1]); out.Scale != want {
		t.Errorf("%s: output scale %g, want %g: a stage did not land at the input's scale", c.Name, out.Scale, want)
	}
	return out
}

func TestEvalOddMatchesPlaintext(t *testing.T) {
	hc := newHEContext(t)
	// Degree 7: three levels for the stage, one for x·p(x).
	hc.checkReLU(t, oneStage(1.5, -0.5, 0.25, -0.03), testVector(hc.params.Slots(), 1), 2, 1e-4)
}

func TestEvalOddDegreeOne(t *testing.T) {
	hc := newHEContext(t)
	hc.checkReLU(t, oneStage(-2.5), testVector(hc.params.Slots(), 2), 1, 1e-5)
}

func TestEvalOddAllDegreesConsumeAnalyticDepth(t *testing.T) {
	hc := newHEContext(t)
	vals := testVector(hc.params.Slots(), 3)
	for _, nc := range []int{1, 2, 3, 4, 5, 6, 7} {
		coeffs := make([]float64, nc)
		for i := range coeffs {
			coeffs[i] = 0.3 / float64(i+1)
			if i%2 == 1 {
				coeffs[i] = -coeffs[i]
			}
		}
		hc.checkReLU(t, oneStage(coeffs...), vals, 1, 1e-4)
	}
}

func TestEvalCompositeMatchesPlaintextForAllForms(t *testing.T) {
	hc := newHEContext(t)
	vals := testVector(hc.params.Slots(), 4)
	for _, name := range paf.AllFormsWithBaseline {
		hc.checkReLU(t, paf.MustNew(name), vals, 1, 1e-2)
	}
}

func TestReLUEncrypted(t *testing.T) {
	hc := newHEContext(t)
	hc.checkReLU(t, paf.MustNew(paf.FormAlpha7), testVector(hc.params.Slots(), 5), 1, 1e-2)
}

// countStages counts the CKKS stages recorded while f runs, by name.
func countStages(f func()) map[string]int {
	var mu sync.Mutex
	n := map[string]int{}
	ckks.SetStageObserver(func(stage string, _ time.Duration) {
		mu.Lock()
		n[stage]++
		mu.Unlock()
	})
	defer ckks.SetStageObserver(nil)
	f()
	return n
}

// TestEvalOddInsufficientLevels: a stage the input level cannot pay for, or
// a composite that leaves no level for x·p(x), is refused by compile, before
// any ciphertext operation.
func TestEvalOddInsufficientLevels(t *testing.T) {
	hc := newHEContext(t)
	ct := hc.encryptReals(t, testVector(hc.params.Slots(), 8))
	alpha7 := paf.MustNew(paf.FormAlpha7)
	for _, tc := range []struct {
		c     *paf.Composite
		level int
	}{
		{oneStage(1, -0.5, 0.25), 2},      // degree 5 needs 3
		{oneStage(1, -0.5, 0.25), 3},      // and one more for x·p(x)
		{alpha7, alpha7.DepthReLU() - 2},  // the last stage short
		{alpha7, alpha7.DepthReLU() - 1},  // the product short
		{paf.MustNew(paf.FormAlpha10), 1}, // the first stage short
	} {
		var err error
		ops := countStages(func() { _, err = hc.he.ReLUScaled(tc.c, hc.eval.DropLevel(ct, tc.level), 1) })
		if err == nil {
			t.Errorf("%s at level %d: expected an insufficient-level error", tc.c.Name, tc.level)
		}
		if len(ops) != 0 {
			t.Errorf("%s at level %d: %v ran before the refusal", tc.c.Name, tc.level, ops)
		}
	}
}

func TestEvalOddRejectsZeroPolynomial(t *testing.T) {
	hc := newHEContext(t)
	ct := hc.encryptReals(t, testVector(hc.params.Slots(), 9))
	if _, err := hc.he.ReLUScaled(oneStage(0, 0), ct, 1); err == nil {
		t.Fatal("expected error for all-zero polynomial")
	}
}

// TestLadderSize: compile gives a degree-d stage enough squarings to cover
// (d-1)/2 in binary.
func TestLadderSize(t *testing.T) {
	hc := newHEContext(t)
	cases := map[int]int{1: 0, 3: 1, 5: 2, 7: 2, 9: 3, 13: 3, 15: 3, 27: 4}
	for deg, want := range cases {
		coeffs := make([]float64, (deg+1)/2)
		for i := range coeffs {
			coeffs[i] = 1
		}
		p, err := compile(hc.params, oneStage(coeffs...), 1, hc.params.MaxLevel(), hc.params.DefaultScale())
		if err != nil {
			t.Fatalf("degree %d: %v", deg, err)
		}
		if got := p.stages[0].ladder; got != want {
			t.Errorf("degree %d: ladder of %d squarings, want %d", deg, got, want)
		}
	}
}

func TestRequiredLevels(t *testing.T) {
	c := paf.MustNew(paf.FormF1G2)
	if got := RequiredLevels(c); got != 7 {
		t.Fatalf("f1∘g2 deployed activation levels = %d want 7 (ReLU 6, normalisation 1)", got)
	}
}

// TestPlanMatchesPaperCounts: for every form, at the exact-depth level and
// one above, ReLUScaled consumes DepthReLU() levels and performs Appendix
// C's operation count: one key switch per ciphertext product (each
// MulRelinRescale is one) and one rescale per constant product.
func TestPlanMatchesPaperCounts(t *testing.T) {
	hc := newHEContext(t)
	ct := hc.encryptReals(t, testVector(hc.params.Slots(), 11))
	for _, name := range paf.AllFormsWithBaseline {
		c := paf.MustNew(name)
		want := c.OpsReLU()
		for _, level := range []int{c.DepthReLU(), c.DepthReLU() + 1} {
			var out *ckks.Ciphertext
			var err error
			ops := countStages(func() { out, err = hc.he.ReLUScaled(c, hc.eval.DropLevel(ct, level), 1) })
			if err != nil {
				t.Fatalf("%s at level %d: %v", name, level, err)
			}
			if got := level - out.Level; got != c.DepthReLU() {
				t.Errorf("%s at level %d: consumed %d levels, want %d", name, level, got, c.DepthReLU())
			}
			if ops["key_switch"] != want.CtMults || ops["rescale"] != want.ConstMults {
				t.Errorf("%s at level %d: %d key switches and %d rescales, Appendix C counts %d ciphertext and %d constant products",
					name, level, ops["key_switch"], ops["rescale"], want.CtMults, want.ConstMults)
			}
			hc.eval.Recycle(out)
		}
	}
}

func TestReLUScaledFoldsConstant(t *testing.T) {
	hc := newHEContext(t)
	vals := testVector(hc.params.Slots(), 10)
	c := paf.MustNew(paf.FormF1G2)
	const gamma = 3.25
	// Folding must not cost an extra level: checkReLU holds both to
	// DepthReLU.
	hc.checkReLU(t, c, vals, gamma, 1e-2)
	// The plan carries the folded coefficients; the composite is untouched.
	p, err := compile(hc.params, c, gamma/2, hc.params.MaxLevel(), hc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	fresh := paf.MustNew(paf.FormF1G2)
	last := len(c.Stages) - 1
	for i, s := range c.Stages {
		if !slices.Equal(s.Coeffs, fresh.Stages[i].Coeffs) {
			t.Fatalf("stage %d's coefficients moved: %v, want %v", i, s.Coeffs, fresh.Stages[i].Coeffs)
		}
	}
	for _, tm := range p.stages[last].terms {
		if want := c.Stages[last].Coeffs[tm.k] * (gamma / 2); tm.coeff != want {
			t.Errorf("last stage term %d: coefficient %g, want %g", tm.k, tm.coeff, want)
		}
	}
}
