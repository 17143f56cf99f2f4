package hepoly

import (
	"math"
	"math/rand"
	"testing"

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

func TestEvalOddMatchesPlaintext(t *testing.T) {
	hc := newHEContext(t)
	vals := testVector(hc.params.Slots(), 1)
	ct := hc.encryptReals(t, vals)

	p := paf.NewOddPoly([]float64{1.5, -0.5, 0.25, -0.03}) // degree 7
	out, err := hc.he.EvalOdd(p, ct)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(vals))
	for i, v := range vals {
		want[i] = p.Eval(v)
	}
	if d := maxAbsDiff(want, hc.decryptReals(out)); d > 1e-4 {
		t.Fatalf("EvalOdd error %g", d)
	}
	// Depth: degree 7 must consume exactly 3 levels.
	if got, want := hc.params.MaxLevel()-out.Level, 3; got != want {
		t.Fatalf("levels consumed = %d want %d", got, want)
	}
	// Scale restored to input scale exactly.
	if out.Scale != ct.Scale {
		t.Fatalf("scale %g != input %g", out.Scale, ct.Scale)
	}
}

func TestEvalOddDegreeOne(t *testing.T) {
	hc := newHEContext(t)
	vals := testVector(hc.params.Slots(), 2)
	ct := hc.encryptReals(t, vals)
	p := paf.NewOddPoly([]float64{-2.5})
	out, err := hc.he.EvalOdd(p, ct)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(vals))
	for i, v := range vals {
		want[i] = -2.5 * v
	}
	if d := maxAbsDiff(want, hc.decryptReals(out)); d > 1e-5 {
		t.Fatalf("degree-1 error %g", d)
	}
	if hc.params.MaxLevel()-out.Level != 1 {
		t.Fatal("degree-1 should consume exactly 1 level")
	}
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
		p := paf.NewOddPoly(coeffs)
		ct := hc.encryptReals(t, vals)
		out, err := hc.he.EvalOdd(p, ct)
		if err != nil {
			t.Fatalf("degree %d: %v", p.Degree(), err)
		}
		want := paf.DepthOfDegree(p.Degree())
		if got := hc.params.MaxLevel() - out.Level; got != want {
			t.Fatalf("degree %d: consumed %d levels, analytic %d", p.Degree(), got, want)
		}
		ref := make([]float64, len(vals))
		for i, v := range vals {
			ref[i] = p.Eval(v)
		}
		if d := maxAbsDiff(ref, hc.decryptReals(out)); d > 1e-4 {
			t.Fatalf("degree %d: error %g", p.Degree(), d)
		}
	}
}

func TestEvalCompositeMatchesPlaintextForAllForms(t *testing.T) {
	hc := newHEContext(t)
	vals := testVector(hc.params.Slots(), 4)
	for _, name := range paf.AllFormsWithBaseline {
		c := paf.MustNew(name)
		ct := hc.encryptReals(t, vals)
		out, err := hc.he.EvalComposite(c, ct)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := hc.params.MaxLevel() - out.Level; got != c.Depth() {
			t.Errorf("%s: consumed %d levels, Table 2 depth %d", name, got, c.Depth())
		}
		want := make([]float64, len(vals))
		for i, v := range vals {
			want[i] = c.Eval(v)
		}
		if d := maxAbsDiff(want, hc.decryptReals(out)); d > 1e-2 {
			t.Errorf("%s: encrypted vs plaintext error %g", name, d)
		}
	}
}

func TestReLUEncrypted(t *testing.T) {
	hc := newHEContext(t)
	vals := testVector(hc.params.Slots(), 5)
	c := paf.MustNew(paf.FormAlpha7)
	ct := hc.encryptReals(t, vals)
	out, err := hc.he.ReLU(c, ct)
	if err != nil {
		t.Fatal(err)
	}
	// Against the PAF's own plaintext ReLU (tight tolerance: same math).
	wantPAF := make([]float64, len(vals))
	for i, v := range vals {
		wantPAF[i] = c.ReLU(v)
	}
	if d := maxAbsDiff(wantPAF, hc.decryptReals(out)); d > 1e-2 {
		t.Fatalf("encrypted vs plaintext PAF ReLU differ by %g", d)
	}
	if got := hc.params.MaxLevel() - out.Level; got != c.DepthReLU() {
		t.Fatalf("ReLU consumed %d levels, want %d", got, c.DepthReLU())
	}
}

func TestMaxEncrypted(t *testing.T) {
	hc := newHEContext(t)
	// PAF max requires |a-b| ≤ 1: exactly the invariant Static Scaling
	// maintains in deployment. Use half-range inputs.
	a := testVector(hc.params.Slots(), 6)
	b := testVector(hc.params.Slots(), 7)
	for i := range a {
		a[i] *= 0.5
		b[i] *= 0.5
	}
	c := paf.MustNew(paf.FormAlpha7)
	cta := hc.encryptReals(t, a)
	ctb := hc.encryptReals(t, b)
	out, err := hc.he.Max(c, cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(a))
	for i := range a {
		want[i] = c.Max(a[i], b[i])
	}
	if d := maxAbsDiff(want, hc.decryptReals(out)); d > 1e-2 {
		t.Fatalf("encrypted max error %g", d)
	}
}

func TestEvalOddInsufficientLevels(t *testing.T) {
	hc := newHEContext(t)
	vals := testVector(hc.params.Slots(), 8)
	ct := hc.encryptReals(t, vals)
	low := hc.eval.DropLevel(ct, 1)
	p := paf.NewOddPoly([]float64{1, -0.5, 0.25}) // degree 5, needs 3
	if _, err := hc.he.EvalOdd(p, low); err == nil {
		t.Fatal("expected insufficient-level error")
	}
}

func TestEvalOddRejectsZeroPolynomial(t *testing.T) {
	hc := newHEContext(t)
	ct := hc.encryptReals(t, testVector(hc.params.Slots(), 9))
	if _, err := hc.he.EvalOdd(paf.NewOddPoly([]float64{0, 0}), ct); err == nil {
		t.Fatal("expected error for all-zero polynomial")
	}
}

func TestLadderSize(t *testing.T) {
	cases := map[int]int{1: 0, 3: 1, 5: 2, 7: 2, 9: 3, 13: 3, 15: 3, 27: 4}
	for deg, want := range cases {
		if got := ladderSize(deg); got != want {
			t.Errorf("ladderSize(%d) = %d want %d", deg, got, want)
		}
	}
}

func TestRequiredLevels(t *testing.T) {
	c := paf.MustNew(paf.FormF1G2)
	if RequiredLevels(c, false) != 6 {
		t.Fatalf("f1∘g2 ReLU levels = %d want 6", RequiredLevels(c, false))
	}
	if RequiredLevels(c, true) != 7 {
		t.Fatal("scaling should add one level")
	}
}

func TestReLUScaledFoldsConstant(t *testing.T) {
	hc := newHEContext(t)
	vals := testVector(hc.params.Slots(), 10)
	c := paf.MustNew(paf.FormF1G2)
	const gamma = 3.25
	ct := hc.encryptReals(t, vals)
	out, err := hc.he.ReLUScaled(c, ct, gamma)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(vals))
	for i, v := range vals {
		want[i] = gamma * c.ReLU(v)
	}
	if d := maxAbsDiff(want, hc.decryptReals(out)); d > 1e-2 {
		t.Fatalf("scaled relu error %g", d)
	}
	// Folding must not cost an extra level vs plain ReLU.
	plain, err := hc.he.ReLU(c, hc.encryptReals(t, vals))
	if err != nil {
		t.Fatal(err)
	}
	if out.Level != plain.Level {
		t.Fatalf("ReLUScaled consumed %d levels vs ReLU's %d", hc.params.MaxLevel()-out.Level, hc.params.MaxLevel()-plain.Level)
	}
}
