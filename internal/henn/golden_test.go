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
	return map[string]*ckks.Ciphertext{
		"apply-linear-bsgs": must(ctx.ApplyLinear(lin, ct)),
		"unit-run":          must(Unit{Ctx: ctx, MLP: mlp, CT: ct}.Run()),
	}
}

func TestLayerOutputsGolden(t *testing.T) {
	for _, width := range []int{1, 0, 4} {
		ring.SetParallelism(width)
		for name, ct := range goldenLayerOutputs(t) {
			data, err := ct.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != goldenLayerDigests[name] {
				t.Errorf("parallelism %d: %s: digest %s, want %s", width, name, got, goldenLayerDigests[name])
			}
		}
	}
	ring.SetParallelism(0)
}
