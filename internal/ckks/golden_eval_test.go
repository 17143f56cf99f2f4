package ckks

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ring"
)

// goldenEvalDigests pins the bytes of the evaluator's outputs: SHA-256 of
// the marshaled results goldenEvalOutputs computes from fixed seeds,
// generated at the commit before the NTT butterflies and the key-switch
// accumulation went lazy. Reduction strategy is an implementation detail;
// the canonical residues an operation returns are not, so every digest must
// hold under any fan-out width.
var goldenEvalDigests = map[string]string{
	"small/rotate":            "91f8293131d476192de99595fc4b249595241bb03db1146c3d5f713503847b9e",
	"small/rotate-hoisted":    "f3aa3e3743b1f1a9c3ca93e04b098f9e47772e75b73c96e43b685a00b0bc5cba",
	"small/mul-relin-rescale": "810b7ea1230b8485bbcd9cf933d1cb06725afc3b93df148c37d922a1868bd6e5",
	"small/rescale":           "8ee63bcbc9bf44dd907f28bf080d98d10281b9561fa3a5915c166c70405ec076",
	"wide/rotate":             "0e8872d4a688cbef970aae44a238f999440d128d2ebb67dd3385ee4eb9ec78c1",
	"wide/rotate-hoisted":     "2d8eded238e8d0de68110688e297017bc41249f35b46a5065603fd5845db8ec2",
	"wide/mul-relin-rescale":  "31285536ec3879b68defa9caf7a25a41be24613bad9f5ae9799655b8dfdd9b2e",
	"wide/rescale":            "565f5eb96623c7e40368695facbac1cd6be5170d434ec54ac306e9b79c3270a8",
}

// goldenEvalLits: the suite's tiny chain, and a LogN=10 chain led by 60-bit
// primes — the widest residues the lazy bounds must survive, and long
// enough for the key-switch digit fan to engage (asserted below).
var goldenEvalLits = map[string]ParametersLiteral{
	"small": testLit,
	"wide":  {LogN: 10, LogQ: []int{60, 55, 55, 55, 55, 55, 55}, LogP: 60, LogScale: 55},
}

func goldenEvalOutputs(t testing.TB) map[string]*Ciphertext {
	out := map[string]*Ciphertext{}
	for name, lit := range goldenEvalLits {
		tc := newTestContext(t, lit)
		if l := tc.params.MaxLevel(); name == "wide" && (l+1)*(l+2)*tc.params.N() < ring.MinParallelWork {
			t.Fatalf("the wide chain no longer reaches ring.MinParallelWork: its key switches would not fan")
		}
		eval := NewEvaluator(tc.params, tc.rlk).
			WithRotationKeys(tc.kg.GenRotationKeys(tc.sk, []int{3}, false))
		values := make([]complex128, tc.params.Slots())
		for i := range values {
			values[i] = complex(float64(i%7)/7-0.4, float64(i%5)/5-0.3)
		}
		pt, err := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		ct := tc.encr.Encrypt(pt)
		must := func(ct *Ciphertext, err error) *Ciphertext {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return ct
		}
		out[name+"/rotate"] = must(eval.Rotate(ct, 3))
		dec := eval.DecomposeHoisted(ct)
		out[name+"/rotate-hoisted"] = must(eval.RotateHoisted(dec, 3))
		dec.Release()
		out[name+"/mul-relin-rescale"] = must(eval.MulRelinRescale(ct, ct))
		out[name+"/rescale"] = must(eval.Rescale(eval.MulPlain(ct, pt)))
	}
	return out
}

func TestEvaluatorOutputsGolden(t *testing.T) {
	for _, width := range []int{1, 0, 4} {
		ring.SetParallelism(width)
		for name, ct := range goldenEvalOutputs(t) {
			data, err := ct.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != goldenEvalDigests[name] {
				t.Errorf("parallelism %d: %s: digest %s, want %s", width, name, got, goldenEvalDigests[name])
			}
		}
	}
	ring.SetParallelism(0)
}
