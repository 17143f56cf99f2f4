package ckks

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ring"
	"github.com/efficientfhe/smartpaf/internal/wire"
)

// goldenEvalDigests pins the bytes of the evaluator's outputs: SHA-256 of
// the results goldenEvalOutputs computes from fixed seeds, in digestBytes'
// fixed layout.
// Reduction strategy and fan-out are implementation details; the canonical
// residues an operation returns are not, so every digest must hold under any
// fan-out width. The rescale digests date from the commit before the NTT
// butterflies went lazy. The key-switching ones were regenerated when the
// gadget went from per-prime to grouped digits — different digits, different
// rounding — under the rule TestPrecisionTable states: a digest may move only
// beside a precision table that did not. They moved again, beside the same
// unmoved table, when switching keys began drawing a_d from a seeded AES-CTR
// keystream: other keys, so other noise in every key switch. The rescale
// digests used no key and did not move then. All of them moved, beside the
// same unmoved table, when the secret, the errors and the encryption mask
// came to be drawn from AES-256-CTR keystreams rather than math/rand: another
// secret and another encryption of every input. The same sampler and
// derivation on the commit before give these digests.
var goldenEvalDigests = map[string]string{
	"small/rotate":            "55634dbe21a5b2ac8bcba78416ed3667481ac5b96858e514d83da5bfa57324f0",
	"small/rotate-hoisted":    "55634dbe21a5b2ac8bcba78416ed3667481ac5b96858e514d83da5bfa57324f0",
	"small/mul-relin-rescale": "449c8de770b6498d0bca4257222645a2c8e62e27431db35c10c808a32d52fb3d",
	"small/rescale":           "fde750f34f86849f053524c1341e75cd4db69c6a486f666a1c94061781c508c5",
	"wide/rotate":             "e6e2e1bdeb2f7f8c663c825801338dece8bce5b4c06f3c90d620ec21845a2f48",
	"wide/rotate-hoisted":     "e6e2e1bdeb2f7f8c663c825801338dece8bce5b4c06f3c90d620ec21845a2f48",
	"wide/mul-relin-rescale":  "fac2b5d3483ad75b421bc5acc7831d324716add548cc1cd8dc914989dd8a329f",
	"wide/rescale":            "ba6b1d546094da3080764471d9d5747894bf1168ace2ac5e4518b7ab4ca5e3dc",
}

// goldenEvalLits: the suite's tiny chain with one special prime, and a LogN=10
// chain led by 60-bit primes with two — the widest residues the lazy bounds
// must survive, digits of two limbs (the last of one), and long enough for
// the key-switch limb fan to engage (asserted below).
var goldenEvalLits = map[string]ParametersLiteral{
	"small": testLit,
	"wide":  {LogN: 10, LogQ: []int{60, 55, 55, 55, 55, 55, 55}, LogP: []int{60, 60}, LogScale: 55},
}

func goldenEvalOutputs(t testing.TB) map[string]*Ciphertext {
	out := map[string]*Ciphertext{}
	for name, lit := range goldenEvalLits {
		tc := newTestContext(t, lit)
		if l := tc.params.MaxLevel(); name == "wide" && (l+1+len(lit.LogP))*2*tc.params.Digits(l)*tc.params.N() < ring.MinParallelWork {
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

// digestBytes is the layout the golden digests hash: the magic 0x5AF7CC09,
// the level, the scale, then each component's limb count, degree and every
// residue in 8 bytes — the ciphertext wire format of the day the digests were
// taken. They pin the residues an evaluation returns, so they hash this fixed
// layout, not whatever form MarshalBinary writes now.
func digestBytes(ct *Ciphertext) []byte {
	var w wire.Writer
	w.U32(0x5AF7CC09)
	w.U32(uint32(ct.Level))
	w.F64(ct.Scale)
	for _, p := range []*ring.Poly{ct.C0, ct.C1} {
		w.U32(uint32(len(p.Coeffs)))
		w.U32(uint32(len(p.Coeffs[0])))
		for _, limb := range p.Coeffs {
			for _, c := range limb {
				w.U64(c)
			}
		}
	}
	return w
}

func TestEvaluatorOutputsGolden(t *testing.T) {
	for _, width := range []int{1, 0, 4} {
		ring.SetParallelism(width)
		for name, ct := range goldenEvalOutputs(t) {
			sum := sha256.Sum256(digestBytes(ct))
			if got := hex.EncodeToString(sum[:]); got != goldenEvalDigests[name] {
				t.Errorf("parallelism %d: %s: digest %s, want %s", width, name, got, goldenEvalDigests[name])
			}
		}
	}
	ring.SetParallelism(0)
}
