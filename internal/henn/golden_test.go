package henn

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/ring"
)

// goldenLayerDigests pins the bytes of the layer evaluators' outputs:
// SHA-256 of the marshaled ciphertexts goldenLayerOutputs computes from
// fixed seeds, on the serving gadget of a ten-limb chain (three special
// primes, four digits). How a sum is reduced or fanned never changes the
// canonical residues that come out; the gadget does, so these were
// regenerated when key switching went to grouped digits, under the rule of
// registry.TestPrecisionTable: a digest moves only beside a precision table
// that did not.
var goldenLayerDigests = map[string]string{
	"apply-linear-bsgs": "1b055276bcdddf6a4edd82e8b19cfe8b0b4b1d2fb6f5b213becfb5bb1d05eb67",
	"unit-run":          "9ff8496ca3c7dff4bb8fc6df2755ad76bb8ec53230cb4bf333bcf1edbe5b7984",
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
// generated before the activation drew its intermediates from the pool.
var goldenActivationDigests = map[string]string{
	"relu-scaled/alpha10":   "fe19803fa6dcfeac3c6c487bf02519118f4ed554efd7a3a9619de1b1ac66bd19",
	"relu-scaled/f1f1_g1g1": "783f0df53b08d242e30f3596985a4aff618301871620cc910da1465c6c0a4f1e",
	"relu-scaled/alpha7":    "0295551c527d91adb0955904fd7321223d67b3721b2c7fcb22580781c840e23a",
	"relu-scaled/f2_g3":     "fb2bd9767e2e12573decb3ebfea46319879ee803e48b86e2b63a526ddb56e91a",
	"relu-scaled/f2_g2":     "96cf8c6ebbc619e304c656dd1f1f695b272ab122ca12c1354a21ffbd5e548be6",
	"relu-scaled/f1_g2":     "831ccc4b8951d8abca08fe7bbe0eb4f6fa2c3893190f1728a61b6382655656e4",
	"max/alpha10":           "adba56064ed0922dfb6536faf58e8b6d70252b8ba1f41756cacdd2dd8d0e0025",
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

// checkGoldenDigests compares every output's SHA-256 with its pinned digest
// at fan-out widths 1, the default and 4.
func checkGoldenDigests(t *testing.T, outputs func(testing.TB) map[string]*ckks.Ciphertext, digests map[string]string) {
	defer ring.SetParallelism(0)
	for _, width := range []int{1, 0, 4} {
		ring.SetParallelism(width)
		for name, ct := range outputs(t) {
			data, err := ct.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != digests[name] {
				t.Errorf("parallelism %d: %s: digest %s, want %s", width, name, got, digests[name])
			}
		}
	}
}
