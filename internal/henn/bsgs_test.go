package henn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/paf"
)

func randomLinear(rng *rand.Rand, in, out int) *Linear {
	l := &Linear{In: in, Out: out, B: make([]float64, out)}
	l.W = make([][]float64, out)
	for i := range l.W {
		l.W[i] = make([]float64, in)
		for j := range l.W[i] {
			l.W[i][j] = rng.NormFloat64() * 0.5
		}
		l.B[i] = rng.NormFloat64() * 0.1
	}
	return l
}

func TestBSGSMatchesPlaintext(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lin := randomLinear(rng, 20, 12)
	mlp := &MLP{Layers: []any{lin}}
	ctx, encryptor, decryptor := newHEContext(t, 2, mlp.ServingRotations(128))

	x := make([]float64, 20)
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
			t.Fatalf("output %d off by %g", i, d)
		}
	}
	if out.Level != ct.Level-1 || out.Scale != ct.Scale {
		t.Fatalf("level/scale (%d, %g), want one level below the input's (%d, %g)",
			out.Level, out.Scale, ct.Level, ct.Scale)
	}
}

func TestBSGSNeedsFewerRotations(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// A dense wide layer: the regime BSGS exists for.
	lin := randomLinear(rng, 100, 64)
	mlp := &MLP{Layers: []any{lin}}
	slots := 128
	naive := slots - 1 // 100+64-1 diagonals fill a 128-slot vector
	bsgs := len(mlp.ServingRotations(slots))
	if bsgs >= naive {
		t.Fatalf("BSGS needs %d rotations, one per diagonal is %d — no saving", bsgs, naive)
	}
	// Asymptotically ~2√slots vs ~in+out.
	if bsgs > 4*int(math.Sqrt(float64(slots))) {
		t.Fatalf("BSGS rotation count %d far above O(√slots)", bsgs)
	}
}

// TestHoistedRotationEquivalenceOnModelRotationSet is the serving-path
// equivalence suite: for every rotation step a deployed model's BSGS plan
// prescribes — plus negative and wrapped variants — the hoisted rotation
// must agree with plain Rotate within the precision harness bound, with
// many goroutines sharing one evaluator and one read-only decomposition
// (run under -race via `make test`).
func TestHoistedRotationEquivalenceOnModelRotationSet(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	mlp := &MLP{Layers: []any{
		randomLinear(rng, 20, 12),
		&Activation{PAF: paf.MustNew(paf.FormF1G2), Scale: 4},
		randomLinear(rng, 12, 6),
	}}
	slots := 128
	prescribed := mlp.ServingRotations(slots)
	if len(prescribed) == 0 {
		t.Fatal("model prescribes no rotations")
	}
	// Negative and wrapped variants normalize onto the same key set.
	steps := append([]int(nil), prescribed...)
	steps = append(steps, prescribed[0]-slots, prescribed[len(prescribed)-1]+slots)
	ctx, encryptor, decryptor := newHEContext(t, 2, prescribed)

	values := make([]float64, slots)
	for i := range values {
		values[i] = rng.Float64()*2 - 1
	}
	pt, err := ctx.Enc.EncodeReals(values, ctx.Params.MaxLevel(), ctx.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := encryptor.Encrypt(pt)

	dec := ctx.Eval.DecomposeHoisted(ct)
	defer dec.Release()
	check := func(step int) error {
		hoisted, err := ctx.Eval.RotateHoisted(dec, step)
		if err != nil {
			return err
		}
		plain, err := ctx.Eval.Rotate(ct, step)
		if err != nil {
			return err
		}
		gh := ctx.Enc.DecodeReals(decryptor.Decrypt(hoisted))
		gp := ctx.Enc.DecodeReals(decryptor.Decrypt(plain))
		for i := 0; i < slots; i++ {
			want := values[((i+step)%slots+slots)%slots]
			if d := math.Abs(gh[i] - want); d > 1e-4 {
				t.Errorf("step %d slot %d: hoisted off plaintext by %g", step, i, d)
				return nil
			}
			if d := math.Abs(gh[i] - gp[i]); d > 1e-4 {
				t.Errorf("step %d slot %d: hoisted differs from plain by %g", step, i, d)
				return nil
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, step := range steps {
				if err := check(step); err != nil {
					t.Errorf("step %d: %v", step, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestApplyLinearConcurrent runs the hoisted BSGS layer from many
// goroutines over one shared context, checking each result against the
// plaintext reference — the batched-serving shape, under -race.
func TestApplyLinearConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lin := randomLinear(rng, 24, 16)
	mlp := &MLP{Layers: []any{lin}}
	slots := 128
	ctx, encryptor, decryptor := newHEContext(t, 2, mlp.ServingRotations(slots))

	const workers = 4
	inputs := make([][]float64, workers)
	cts := make([]*ckks.Ciphertext, workers)
	for g := range cts {
		x := make([]float64, 24)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		inputs[g] = x
		vec := make([]float64, ctx.Params.Slots())
		copy(vec, x)
		pt, err := ctx.Enc.EncodeReals(vec, ctx.Params.MaxLevel(), ctx.Params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		cts[g] = encryptor.Encrypt(pt)
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out, err := ctx.ApplyLinear(lin, cts[g])
			if err != nil {
				t.Errorf("worker %d: %v", g, err)
				return
			}
			got := ctx.Enc.DecodeReals(decryptor.Decrypt(out))
			want := mlp.InferPlain(inputs[g])
			for i := 0; i < lin.Out; i++ {
				if d := math.Abs(got[i] - want[i]); d > 1e-4 {
					t.Errorf("worker %d output %d off by %g", g, i, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestInferEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mlp := &MLP{Layers: []any{
		randomLinear(rng, 16, 10),
		&Activation{PAF: paf.MustNew(paf.FormF1G2), Scale: 4},
		randomLinear(rng, 10, 4),
	}}
	ctx, encryptor, decryptor := newHEContext(t, mlp.LevelsRequired()+1, mlp.ServingRotations(128))

	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	vec := make([]float64, ctx.Params.Slots())
	copy(vec, x)
	pt, err := ctx.Enc.EncodeReals(vec, ctx.Params.MaxLevel(), ctx.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Infer(mlp, encryptor.Encrypt(pt))
	if err != nil {
		t.Fatal(err)
	}
	got := ctx.Enc.DecodeReals(decryptor.Decrypt(out))
	want := mlp.InferPlain(x)
	for i := 0; i < 4; i++ {
		if d := math.Abs(got[i] - want[i]); d > 1e-2*(1+math.Abs(want[i])) {
			t.Fatalf("logit %d: encrypted %g plaintext %g", i, got[i], want[i])
		}
	}
}
