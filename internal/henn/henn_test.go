package henn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/data"
	"github.com/efficientfhe/smartpaf/internal/nn"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/smartpaf"
)

// newHEContext builds a small context with rotation keys for the MLP.
func newHEContext(t testing.TB, levels int, rotations []int) (*Context, *ckks.Encryptor, *ckks.Decryptor) {
	t.Helper()
	return newHEContextLogN(t, 8, levels, rotations)
}

// newHEContextLogN builds on ckks.ChainLiteral's exact-depth chain at an
// explicit ring too small for the 128-bit bound, so the layer tests run on
// the serving gadget: one special prime up to four limbs, two at five, three
// on a ten-limb chain.
func newHEContextLogN(t testing.TB, logN, levels int, rotations []int) (*Context, *ckks.Encryptor, *ckks.Decryptor) {
	t.Helper()
	lit, err := ckks.ChainLiteral(logN, levels, 0)
	if err != nil {
		t.Fatal(err)
	}
	params, err := ckks.NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, 31)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	rks := kg.GenRotationKeys(sk, rotations, false)
	eval := ckks.NewEvaluator(params, rlk).WithRotationKeys(rks)
	return NewContext(params, ckks.NewEncoder(params), eval),
		ckks.NewEncryptor(params, pk, 32),
		ckks.NewDecryptor(params, sk)
}

func TestApplyLinearMatchesPlaintext(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lin := &Linear{In: 6, Out: 4, B: make([]float64, 4)}
	lin.W = make([][]float64, 4)
	for i := range lin.W {
		lin.W[i] = make([]float64, 6)
		for j := range lin.W[i] {
			lin.W[i][j] = rng.NormFloat64()
		}
		lin.B[i] = rng.NormFloat64() * 0.1
	}
	mlp := &MLP{Layers: []any{lin}}
	ctx, encryptor, decryptor := newHEContext(t, 2, mlp.ServingRotations(128))

	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	vec := make([]float64, ctx.Params.Slots())
	copy(vec, x)
	pt, err := ctx.Enc.EncodeReals(vec, ctx.Params.MaxLevel(), ctx.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := encryptor.Encrypt(pt)
	out, err := ctx.ApplyLinear(lin, ct)
	if err != nil {
		t.Fatal(err)
	}
	got := ctx.Enc.DecodeReals(decryptor.Decrypt(out))
	want := mlp.InferPlain(x)
	for i := 0; i < lin.Out; i++ {
		if d := math.Abs(got[i] - want[i]); d > 1e-4 {
			t.Fatalf("output %d: got %g want %g", i, got[i], want[i])
		}
	}
	if out.Level != ct.Level-1 {
		t.Fatalf("linear should consume exactly one level, got %d -> %d", ct.Level, out.Level)
	}
}

func TestServingRotationsAndLevels(t *testing.T) {
	lin := &Linear{In: 3, Out: 2, B: []float64{0, 0},
		W: [][]float64{{1, 0, 0}, {0, 0, 2}}}
	mlp := &MLP{Layers: []any{
		lin,
		&Activation{PAF: paf.MustNew(paf.FormF1G2), Scale: 1},
	}}
	rots := mlp.ServingRotations(8)
	// Nonzero diagonals of W over 8 slots: d=0 (W[0][0]) and d=2 (W[1][3]?
	// no: W[1][(1+d)%8] nonzero at (1+d)=2 -> d=1).
	want := map[int]bool{1: true}
	for _, r := range rots {
		if !want[r] {
			t.Fatalf("unexpected rotation %d (all: %v)", r, rots)
		}
		delete(want, r)
	}
	if len(want) != 0 {
		t.Fatalf("missing rotations: %v", want)
	}
	// Levels: 1 (linear) + depth(5)+1+1 (activation) = 8.
	if got := mlp.LevelsRequired(); got != 8 {
		t.Fatalf("LevelsRequired = %d want 8", got)
	}
}

// TestEndToEndPrivateInference trains a small MLP with the SMART-PAF
// pipeline, converts it for encrypted inference, and verifies encrypted
// logits match the plaintext deployed model.
func TestEndToEndPrivateInference(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	dcfg := data.Tiny()
	dcfg.Channels = 1
	dcfg.Size = 6 // 36 inputs ≤ 128 slots
	dcfg.Train, dcfg.Val = 200, 80
	train, val := data.Generate(dcfg)
	m := nn.MLP([]int{36, 16, dcfg.Classes}, 5)
	smartpaf.Pretrain(m, train, 8, 3e-3, 1)

	cfg := smartpaf.DefaultConfig(paf.FormF1G2)
	cfg.Epochs, cfg.MaxGroupsPerStep, cfg.ProfileBatches = 1, 1, 2
	pipe, err := smartpaf.NewPipeline(m, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Run(); err != nil {
		t.Fatal(err)
	}

	mlp, err := FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	levels := mlp.LevelsRequired()
	ctx, encryptor, decryptor := newHEContext(t, levels+1, mlp.ServingRotations(128))

	// Encrypt one validation image and infer.
	x, label := val.Sample(0)
	vec := make([]float64, ctx.Params.Slots())
	copy(vec, x.Data)
	pt, err := ctx.Enc.EncodeReals(vec, ctx.Params.MaxLevel(), ctx.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := encryptor.Encrypt(pt)
	out, err := ctx.Infer(mlp, ct)
	if err != nil {
		t.Fatal(err)
	}
	encLogits := ctx.Enc.DecodeReals(decryptor.Decrypt(out))[:dcfg.Classes]
	plainLogits := mlp.InferPlain(x.Data)[:dcfg.Classes]
	for i := range plainLogits {
		if d := math.Abs(encLogits[i] - plainLogits[i]); d > 1e-2*(1+math.Abs(plainLogits[i])) {
			t.Fatalf("logit %d: encrypted %g plaintext %g", i, encLogits[i], plainLogits[i])
		}
	}
	// The plaintext deployed model and the nn.Model must agree too.
	logitsNN := m.Forward(x, false)
	for i := range plainLogits {
		if d := math.Abs(plainLogits[i] - logitsNN.Data[i]); d > 1e-9 {
			t.Fatalf("henn/nn disagreement at logit %d: %g vs %g", i, plainLogits[i], logitsNN.Data[i])
		}
	}
	_ = label
}

func TestFromModelRejectsUndeployed(t *testing.T) {
	m := nn.MLP([]int{4, 3, 2}, 1)
	if _, err := FromModel(m); err == nil {
		t.Fatal("expected rejection of exact-operator model")
	}
	m.Slots()[0].ReplaceWithPAF(paf.MustNew(paf.FormF1G2))
	if _, err := FromModel(m); err == nil {
		t.Fatal("expected rejection of dynamically scaled model")
	}
}

func TestFromModelRejectsCNN(t *testing.T) {
	m := nn.CNN7(1, 4, 1, 8, 8, 1)
	for _, s := range m.Slots() {
		s.ReplaceWithPAF(paf.MustNew(paf.FormF1G2))
	}
	x := data.Batch{}
	_ = x
	// Give running maxes so Deploy works, then FromModel must still reject
	// the maxpool slots.
	tr, _ := data.Generate(data.Tiny())
	b := tr.Batches(8, nil)[0]
	m.Forward(b.X, true)
	if err := m.Deploy(); err != nil {
		t.Fatal(err)
	}
	if _, err := FromModel(m); err == nil {
		t.Fatal("expected rejection of CNN (maxpool slots)")
	}
}

// TestFromModelRejectsEmptyBias: a zero-length bias parameter must come
// back as an error, not a divide-by-zero panic in the weight-shape
// inference (regression: FromModel computed len(w)/len(b) unguarded).
func TestFromModelRejectsEmptyBias(t *testing.T) {
	dcfg := data.Tiny()
	dcfg.Size = 4 // 16 inputs
	dcfg.Train, dcfg.Val = 32, 8
	train, _ := data.Generate(dcfg)
	m := nn.MLP([]int{16, 8, dcfg.Classes}, 1)
	for _, s := range m.Slots() {
		s.ReplaceWithPAF(paf.MustNew(paf.FormF1G2))
	}
	// One training-mode forward pass gives the PAF layers the running
	// maxima Deploy freezes into static scales.
	m.Forward(train.Batches(8, nil)[0].X, true)
	if err := m.Deploy(); err != nil {
		t.Fatal(err)
	}
	if _, err := FromModel(m); err != nil {
		t.Fatalf("intact model must convert: %v", err)
	}

	for _, p := range m.Params() {
		if p.Group == nn.GroupLinear && strings.HasSuffix(p.Name, ".b") {
			p.Data = nil
			break
		}
	}
	if _, err := FromModel(m); err == nil {
		t.Fatal("expected an error for an empty bias parameter")
	}
}
