package ckks

import (
	"math/rand"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ring"
)

// keySwitch is the relinearization's key switch on its own: decompose, multiply
// by the key over Q·P, divide by P. It returns the (c0, c1) correction over
// Q_level, the first of the two modulus switches MulRelinRescale fuses.
func keySwitch(ev *Evaluator, d2 *ring.Poly, digits []EvaluationKeyDigit, level int) (*ring.Poly, *ring.Poly) {
	dec := ev.decompose(d2, level)
	q0, q1, p0, p1 := ev.switchKey(dec, digits, nil)
	dec.Release()
	ev.modDown(&ev.params.byP, level+1, [2]modDownOperand{
		{src: p0.Coeffs, in: q0, out: q0},
		{src: p1.Coeffs, in: q1, out: q1},
	})
	ev.params.RingP().PutPoly(p0)
	ev.params.RingP().PutPoly(p1)
	return q0, q1
}

// mulRelinTwoStep is the product as two modulus switches: relinearize (a
// division by P), add, then Rescale (a division by q_ℓ).
func mulRelinTwoStep(t *testing.T, ev *Evaluator, a, b *Ciphertext) *Ciphertext {
	t.Helper()
	a, b, level := ev.alignLevels(a, b)
	rq := ev.params.RingQ()
	d0, d1, d2 := rq.NewPoly(level), rq.NewPoly(level), rq.NewPoly(level)
	rq.MulCoeffs(a.C0, b.C0, d0)
	rq.MulCoeffs(a.C0, b.C1, d1)
	rq.MulCoeffsThenAdd(a.C1, b.C0, d1)
	rq.MulCoeffs(a.C1, b.C1, d2)
	e0, e1 := keySwitch(ev, d2, ev.rlk.Digits, level)
	rq.Add(d0, e0, d0)
	rq.Add(d1, e1, d1)
	out, err := ev.Rescale(&Ciphertext{C0: d0, C1: d1, Scale: a.Scale * b.Scale, Level: level})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMulRelinRescaleWithinOneOfTwoStep: one division by P·q_ℓ rounds once
// where relinearizing and then rescaling round twice, so at every level the
// fused product may differ from the two-step one by at most one, and by the
// same integer on every limb (a difference of the values, not of residues).
// The literals are the evaluator goldens' two and paf_heavy's shape: fifteen
// limbs, α = 4.
func TestMulRelinRescaleWithinOneOfTwoStep(t *testing.T) {
	for name, lit := range map[string]ParametersLiteral{
		"small":     goldenEvalLits["small"],
		"wide":      goldenEvalLits["wide"],
		"paf-heavy": packedSizeLits["paf-heavy"],
	} {
		tc := newTestContext(t, lit)
		rq, n := tc.params.RingQ(), tc.params.N()
		rng := rand.New(rand.NewSource(42))
		encrypt := func() *Ciphertext {
			pt, err := tc.enc.Encode(randomComplex(rng, tc.params.Slots(), 1), tc.params.MaxLevel(), tc.params.DefaultScale())
			if err != nil {
				t.Fatal(err)
			}
			return tc.encr.Encrypt(pt)
		}
		a, b := encrypt(), encrypt()
		differ := 0
		for level := tc.params.MaxLevel(); level >= 1; level-- {
			got, err := tc.eval.MulRelinRescale(tc.eval.DropLevel(a, level), tc.eval.DropLevel(b, level))
			if err != nil {
				t.Fatal(err)
			}
			want := mulRelinTwoStep(t, tc.eval, tc.eval.DropLevel(a, level), tc.eval.DropLevel(b, level))
			if got.Level != want.Level || got.Scale != want.Scale {
				t.Fatalf("%s level %d: level/scale %d/%g, two-step %d/%g", name, level, got.Level, got.Scale, want.Level, want.Scale)
			}
			for c, pair := range [][2]*ring.Poly{{got.C0, want.C0}, {got.C1, want.C1}} {
				diff := rq.NewPoly(level - 1)
				rq.Neg(pair[1], diff)
				rq.Add(pair[0], diff, diff)
				rq.INTT(diff)
				for k := range n {
					var first int64
					for j, limb := range diff.Coeffs {
						q, v := rq.Moduli[j].Q, limb[k]
						centred := int64(v)
						if v > q/2 {
							centred = -int64(q - v)
						}
						if centred < -1 || centred > 1 || (j > 0 && centred != first) {
							t.Fatalf("%s level %d: c%d coefficient %d differs from the two-step product by %d on limb %d (%d on limb 0)",
								name, level, c, k, centred, j, first)
						}
						first = centred
					}
					if first != 0 {
						differ++
					}
				}
			}
		}
		t.Logf("%s: %d coefficients differ from the two-step product by ±1", name, differ)
	}
}
