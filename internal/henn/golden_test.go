package henn

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/ring"
	"github.com/efficientfhe/smartpaf/internal/wire"
)

// goldenLayerDigests pins the bytes of the layer evaluators' outputs:
// SHA-256 of the ciphertexts goldenLayerOutputs computes from
// fixed seeds, on the serving gadget of a ten-limb chain (three special
// primes, four digits). How a sum is reduced or fanned never changes the
// canonical residues that come out; the gadget does, so these were
// regenerated when key switching went to grouped digits, under the rule of
// registry.TestPrecisionTable: a digest moves only beside a precision table
// that did not. They moved again, beside the same table, when switching keys
// began drawing a_d from a seeded AES-CTR keystream (other keys, other noise),
// and again, beside the same table, when the secret, the errors and the
// encryption mask followed onto keystreams (another secret, other inputs).
var goldenLayerDigests = map[string]string{
	"apply-linear-bsgs": "c19ec13be023cc79e2a4591b7a963a41a6fb2268790c62f66ddca958d2034558",
	"unit-run":          "d6d6f19454a722f718b0f185e43467762b5bdf54a5a96a7ce64dbb0e03a9be15",
}

func goldenLayerOutputs(t testing.TB) map[string]*ckks.Ciphertext {
	rng := rand.New(rand.NewSource(17))
	lin := randomLinear(rng, 20, 12)
	out := randomLinear(rng, 12, 4)
	mlp := &MLP{Layers: []any{lin, &Activation{PAF: paf.MustNew(paf.FormF1G2), Scale: 4}, out}}
	// LogN=9 with this model's ten-limb chain is the smallest ring whose key
	// switches reach ring.MinParallelWork (13 limbs of Q·P, each summing four
	// digits into two components), so the default-width pass really fans.
	const logN, slots = 9, 256
	if l := mlp.LevelsRequired(); (l+4)*2*4<<logN < ring.MinParallelWork || l != 9 {
		t.Fatal("the golden model's key switches no longer reach ring.MinParallelWork")
	}
	ctx, encryptor, _ := newHEContextLogN(t, logN, mlp.LevelsRequired(), mlp.ServingRotations(slots))

	vec := make([]float64, ctx.Params.Slots())
	for i := 0; i < lin.In; i++ {
		vec[i] = rng.Float64()*2 - 1
	}
	pt, err := ctx.Enc.EncodeReals(vec, ctx.Params.MaxLevel(), ctx.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := encryptor.Encrypt(pt)
	must := func(ct *ckks.Ciphertext, err error) *ckks.Ciphertext {
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	// The unit runs first: Infer hands each layer's output back to the ring
	// pool, and the layer after it must still find ct intact.
	return map[string]*ckks.Ciphertext{
		"unit-run":          must(Unit{Ctx: ctx, MLP: mlp, CT: ct}.Run()),
		"apply-linear-bsgs": must(ctx.ApplyLinear(lin, ct)),
	}
}

// goldenActivationDigests pins the activation alone: ReLUScaled on every PAF
// form, all from one input on alpha10's exact-depth chain.
// alpha10's degree-27 composite creates and drops more ciphertexts than any
// other stage, so a poly handed back to the ring pool one op too early — or
// a caller's ciphertext handed back at all — changes these bytes. They were
// generated before the activation drew its intermediates from the pool, and
// regenerated when the relinearization key's a_d came to be expanded from a
// seed (other key, other noise; the pooling was already pinned by then), and
// when the secret, the errors and the encryption mask came to be drawn from
// AES-256-CTR keystreams rather than math/rand.
var goldenActivationDigests = map[string]string{
	"relu-scaled/alpha10":   "6038823bb83d85c013238395758739137fd3e40f75682f412cd833946b9102fb",
	"relu-scaled/f1f1_g1g1": "70c487190a410789e3994d837cd28a6d11fca66c60ac16785440ac81128a4d18",
	"relu-scaled/alpha7":    "d30ae0466e6616a41ce1a99f80d4bfa78c0e4d4c80adb14d48f38c4f0dce203e",
	"relu-scaled/f2_g3":     "0297be1bd6e29331b11d29e7164fecac20ad08ab3c6e08e54d52fb021d602151",
	"relu-scaled/f2_g2":     "3d359305da7ac3bdf5016fd54a19315229fad3fbd1720d739f03802da5de587a",
	"relu-scaled/f1_g2":     "a1dda16933ef81838fe13b23653e06d3d423ed5b875ade5b6fe7fa6ecabc0970",
}

func goldenActivationOutputs(t testing.TB) map[string]*ckks.Ciphertext {
	rng := rand.New(rand.NewSource(29))
	alpha10 := paf.MustNew(paf.FormAlpha10)
	ctx, encryptor, _ := newHEContextLogN(t, 9, alpha10.DepthReLU(), nil)
	vec := make([]float64, ctx.Params.Slots())
	for i := range vec {
		vec[i] = rng.Float64()*2 - 1
	}
	pt, err := ctx.Enc.EncodeReals(vec, ctx.Params.MaxLevel(), ctx.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	x := encryptor.Encrypt(pt)
	must := func(ct *ckks.Ciphertext, err error) *ckks.Ciphertext {
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	out := map[string]*ckks.Ciphertext{}
	for _, form := range paf.AllFormsWithBaseline {
		out["relu-scaled/"+form] = must(ctx.HE.ReLUScaled(paf.MustNew(form), x, 4))
	}
	return out
}

func TestLayerOutputsGolden(t *testing.T) {
	checkGoldenDigests(t, goldenLayerOutputs, goldenLayerDigests)
}

func TestActivationOutputsGolden(t *testing.T) {
	checkGoldenDigests(t, goldenActivationOutputs, goldenActivationDigests)
}

// digestBytes is the layout the golden digests hash: the magic 0x5AF7CC09,
// the level, the scale, then each component's limb count, degree and every
// residue in 8 bytes — the ciphertext wire format of the day the digests were
// taken. They pin the residues an evaluation returns, so they hash this fixed
// layout, not whatever form MarshalBinary writes now.
func digestBytes(ct *ckks.Ciphertext) []byte {
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

// checkGoldenDigests compares every output's SHA-256 with its pinned digest
// at fan-out widths 1, the default and 4.
func checkGoldenDigests(t *testing.T, outputs func(testing.TB) map[string]*ckks.Ciphertext, digests map[string]string) {
	defer ring.SetParallelism(0)
	for _, width := range []int{1, 0, 4} {
		ring.SetParallelism(width)
		for name, ct := range outputs(t) {
			sum := sha256.Sum256(digestBytes(ct))
			if got := hex.EncodeToString(sum[:]); got != digests[name] {
				t.Errorf("parallelism %d: %s: digest %s, want %s", width, name, got, digests[name])
			}
		}
	}
}
