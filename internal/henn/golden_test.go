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
// began drawing a_d from a seeded AES-CTR keystream (other keys, other noise).
var goldenLayerDigests = map[string]string{
	"apply-linear-bsgs": "5e8cc953e9617998d9a3aec75f308182f1530b726a3e02dcb2c87e65156c0f9a",
	"unit-run":          "feb0fee3722b7e6e23143b4a7d51a8befa4523bb9e584bc1c694b411ec49534f",
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
// form and Max on alpha10, all from one input on alpha10's exact-depth chain.
// alpha10's degree-27 composite creates and drops more ciphertexts than any
// other stage, so a poly handed back to the ring pool one op too early — or
// a caller's ciphertext handed back at all — changes these bytes. They were
// generated before the activation drew its intermediates from the pool, and
// regenerated when the relinearization key's a_d came to be expanded from a
// seed (other key, other noise; the pooling was already pinned by then).
var goldenActivationDigests = map[string]string{
	"relu-scaled/alpha10":   "437779994337df9ce3f5df3abbe46363dc6992022309d42055d05c8ce8bcf8c2",
	"relu-scaled/f1f1_g1g1": "dca3ea6b36d55ba477bb905b355c8194a3affafb0fcc9e2c328ea84f552a12c5",
	"relu-scaled/alpha7":    "c2e1be5833f2a32c7945c24d42ec2b203d3d1a2117f87dcb257375878a58eaf0",
	"relu-scaled/f2_g3":     "602b0807cc12a25e0b090e0fe752fbce0a2ac02d20463fa09e55e0dd52d8821d",
	"relu-scaled/f2_g2":     "8dadb74c6ff76f02aa67ad9486736ae294d4c1f90dfd46894bee2a4c39b54938",
	"relu-scaled/f1_g2":     "a5494cb7eaf993890119bfd329fe6b11b783181a68b05ee9529c2b80f0521999",
	"max/alpha10":           "4e6c2e940bb3712de4da9edf83d75ece41fe65233d546bc85008f35eafb6d3d8",
}

func goldenActivationOutputs(t testing.TB) map[string]*ckks.Ciphertext {
	rng := rand.New(rand.NewSource(29))
	alpha10 := paf.MustNew(paf.FormAlpha10)
	ctx, encryptor, _ := newHEContextLogN(t, 9, alpha10.DepthReLU(), nil)
	encrypt := func(amplitude float64) *ckks.Ciphertext {
		vec := make([]float64, ctx.Params.Slots())
		for i := range vec {
			vec[i] = (rng.Float64()*2 - 1) * amplitude
		}
		pt, err := ctx.Enc.EncodeReals(vec, ctx.Params.MaxLevel(), ctx.Params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		return encryptor.Encrypt(pt)
	}
	// Max's PAF needs |a−b| ≤ 1, as Static Scaling guarantees in deployment.
	x, a, b := encrypt(1), encrypt(0.5), encrypt(0.5)
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
	out["max/alpha10"] = must(ctx.HE.Max(alpha10, a, b))
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
