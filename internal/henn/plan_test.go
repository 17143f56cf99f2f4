package henn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/telemetry"
)

// sweepShapes are the models of the single-path sweep, with the rotation-key
// count of the path the commit before the diagonal evaluator was deleted
// chose (the smaller of one key per non-zero diagonal and the BSGS set), at
// LogN 7…12; −1 where a layer exceeds the slot count. The diagonal method
// was that choice wherever BSGS needed as many keys or more: every column of
// 1→1, 2→2, 4→4→2, identity16 and banded32, 6→4 and 8→8→4 at LogN 9, 11
// and 12, 16→10→4 at LogN 11 and 12, 20→12→4 at LogN 11.
var sweepShapes = []struct {
	name       string
	layers     func(rng *rand.Rand) []any
	parentKeys [6]int
}{
	{"1-1", denseLayers(1, 1), [6]int{0, 0, 0, 0, 0, 0}},
	{"2-2", denseLayers(2, 2), [6]int{2, 2, 2, 2, 2, 2}},
	{"4-4-2", denseLayers(4, 4, 2), [6]int{6, 6, 6, 6, 6, 6}},
	{"6-4", denseLayers(6, 4), [6]int{8, 8, 8, 6, 8, 8}},
	{"8-8-4", denseLayers(8, 8, 4), [6]int{8, 8, 14, 10, 14, 14}},
	{"16-10-4", denseLayers(16, 10, 4), [6]int{10, 14, 16, 20, 24, 24}},
	{"20-12-4", denseLayers(20, 12, 4), [6]int{11, 14, 17, 24, 30, 24}},
	{"24-16", denseLayers(24, 16), [6]int{11, 14, 17, 25, 32, 24}},
	{"36-16-10", denseLayers(36, 16, 10), [6]int{13, 15, 18, 25, 33, 36}},
	{"64-64", denseLayers(64, 64), [6]int{14, 21, 22, 28, 34, 48}},
	{"64-8", denseLayers(64, 8), [6]int{14, 17, 19, 26, 33, 47}},
	{"100-64", denseLayers(100, 64), [6]int{-1, 21, 25, 30, 36, 49}},
	{"128-128-4", denseLayers(128, 128, 4), [6]int{-1, 21, 30, 34, 38, 51}},
	// One diagonal: no rotation at all.
	{"identity16", sparseLayer(16, func(i, j int) bool { return i == j }), [6]int{0, 0, 0, 0, 0, 0}},
	// Three diagonals (0, 20, slots−12) with every giant block between them
	// empty.
	{"banded32", sparseLayer(32, func(i, j int) bool { return j == i || j == (i+20)%32 }), [6]int{2, 2, 2, 2, 2, 2}},
}

func denseLayers(dims ...int) func(*rand.Rand) []any {
	return func(rng *rand.Rand) []any {
		var layers []any
		for i := 0; i+1 < len(dims); i++ {
			l := randomLinear(rng, dims[i], dims[i+1])
			for _, row := range l.W {
				for j := range row {
					row[j] /= float64(l.In) // keep activations O(1) through stacked layers
				}
			}
			layers = append(layers, l)
		}
		return layers
	}
}

func sparseLayer(n int, nonZero func(i, j int) bool) func(*rand.Rand) []any {
	return func(rng *rand.Rand) []any {
		l := randomLinear(rng, n, n)
		for i, row := range l.W {
			for j := range row {
				if !nonZero(i, j) {
					row[j] = 0
				}
			}
		}
		return []any{l}
	}
}

// TestSingleBSGSPathServesEveryShape replaces the invariant "the advertised
// rotation set and the evaluator's path must agree": over toy, sparse and
// benchmark-sized models at every ring degree, an evaluator holding exactly
// ServingRotations infers correctly (so no key is missing), performs exactly
// one hoisted rotation per advertised baby step and one plain rotation per
// advertised giant step of each layer (so none is idle), and the set is at
// most one key larger than what the two-path design advertised.
func TestSingleBSGSPathServesEveryShape(t *testing.T) {
	var hoisted, plain atomic.Int64
	ckks.SetStageObserver(func(stage string, _ time.Duration) {
		switch stage {
		case "rotate_hoisted":
			hoisted.Add(1)
		case "rotate":
			plain.Add(1)
		}
	})
	defer ckks.SetStageObserver(nil)

	maxLogN := 12
	if raceEnabled {
		maxLogN = 10 // the two largest rings are most of the sweep's time there
	}
	for _, shape := range sweepShapes {
		for logN := 7; logN <= maxLogN; logN++ {
			parent := shape.parentKeys[logN-7]
			if parent < 0 {
				continue
			}
			t.Run(fmt.Sprintf("%s/logN=%d", shape.name, logN), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(logN)))
				mlp := &MLP{Layers: shape.layers(rng)}
				slots := 1 << (logN - 1)
				steps := mlp.ServingRotations(slots)
				if len(steps) > parent+1 {
					t.Errorf("%d rotation keys; the two-path design advertised %d", len(steps), parent)
				}
				n1 := babyStride(slots)
				var wantHoisted, wantPlain int64
				for _, l := range mlp.Layers {
					for _, s := range (&MLP{Layers: []any{l}}).ServingRotations(slots) {
						if s < n1 {
							wantHoisted++
						} else {
							wantPlain++
						}
					}
				}

				ctx, encryptor, decryptor := newHEContextLogN(t, logN, mlp.LevelsRequired(), steps)
				x := make([]float64, mlp.Layers[0].(*Linear).In)
				for i := range x {
					x[i] = rng.Float64()*2 - 1
				}
				vec := make([]float64, slots)
				copy(vec, x)
				pt, err := ctx.Enc.EncodeReals(vec, ctx.Params.MaxLevel(), ctx.Params.DefaultScale())
				if err != nil {
					t.Fatal(err)
				}
				ct := encryptor.Encrypt(pt)
				hoisted.Store(0)
				plain.Store(0)
				out, err := ctx.Infer(mlp, ct)
				if err != nil {
					t.Fatal(err)
				}
				if h, p := hoisted.Load(), plain.Load(); h != wantHoisted || p != wantPlain {
					t.Errorf("%d hoisted + %d plain rotations; the advertised set has %d baby + %d giant steps",
						h, p, wantHoisted, wantPlain)
				}
				got := ctx.Enc.DecodeReals(decryptor.Decrypt(out))
				for i, w := range mlp.InferPlain(x) {
					if d := math.Abs(got[i] - w); d > 1e-4 {
						t.Fatalf("output %d off by %g", i, d)
					}
				}

				if logN > 7 {
					return
				}
				// At the cheapest ring, the direct form of "every advertised
				// key is used": take any one away and inference fails.
				for i, s := range steps {
					without := append(append([]int(nil), steps[:i]...), steps[i+1:]...)
					broken, _, _ := newHEContextLogN(t, logN, mlp.LevelsRequired(), without)
					if _, err := broken.Infer(mlp, ct); err == nil {
						t.Errorf("inference succeeded without the key for advertised step %d", s)
					}
				}
			})
		}
	}
}

// TestLayerLevelShares pins, on the real evaluator, the per-layer level
// budget LevelsRequired sums: each layer kind leaves its input exactly its
// share of levels lower. An exact-depth chain lands on level 0, so a layer
// consuming more fails outright and one consuming less ends above 0.
func TestLayerLevelShares(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layers := map[string]any{"linear": randomLinear(rng, 8, 8)}
	for _, form := range paf.AllFormsWithBaseline {
		layers[form] = &Activation{PAF: paf.MustNew(form), Scale: 2}
	}
	for name, layer := range layers {
		mlp := &MLP{Layers: []any{layer}}
		share := mlp.LevelsRequired()
		ctx, encryptor, _ := newHEContext(t, share, mlp.ServingRotations(128))
		vec := make([]float64, ctx.Params.Slots())
		for i := 0; i < 8; i++ {
			vec[i] = rng.Float64() - 0.5
		}
		pt, err := ctx.Enc.EncodeReals(vec, share, ctx.Params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		ct := encryptor.Encrypt(pt)
		var out *ckks.Ciphertext
		switch v := layer.(type) {
		case *Linear:
			out, err = ctx.ApplyLinear(v, ct)
		case *Activation:
			out, err = ctx.ApplyActivation(v, ct)
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if out.Level != ct.Level-share {
			t.Errorf("%s: level %d -> %d, LevelsRequired counts %d", name, ct.Level, out.Level, share)
		}
	}
}

// TestInferRefusesShallowCiphertext: a ciphertext below the model's depth is
// refused before any layer runs, not after the layers it could afford.
func TestInferRefusesShallowCiphertext(t *testing.T) {
	ctx, mlp, encryptor, _ := smallTestMLP(t)
	pt, err := ctx.Enc.EncodeReals(make([]float64, ctx.Params.Slots()), mlp.LevelsRequired()-1, ctx.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTrace("shallow")
	if _, err := (Unit{Ctx: ctx, MLP: mlp, CT: encryptor.Encrypt(pt), Trace: tr}).Run(); err == nil {
		t.Fatal("a ciphertext one level short was evaluated")
	}
	if stages := tr.Snapshot().Stages; len(stages) != 0 {
		t.Fatalf("stages ran before the refusal: %+v", stages)
	}
}

// TestLinearKeepsOnePlan: a layer holds one encoded plan, for the input
// shape it last ran on. A second input of that shape reuses the very plan;
// an input at another scale or level, or under another encoder, is evaluated
// correctly and its plan replaces the old one. Goroutines alternating two
// shapes on one layer (the swap under -race) all get correct outputs.
func TestLinearKeepsOnePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lin := randomLinear(rng, 8, 8)
	mlp := &MLP{Layers: []any{lin}}
	ctx, encryptor, decryptor := newHEContext(t, 2, mlp.ServingRotations(128))
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	want := mlp.InferPlain(x)
	apply := func(ctx *Context, encryptor *ckks.Encryptor, decryptor *ckks.Decryptor, level int, scale float64) error {
		vec := make([]float64, ctx.Params.Slots())
		copy(vec, x)
		pt, err := ctx.Enc.EncodeReals(vec, level, scale)
		if err != nil {
			return err
		}
		out, err := ctx.ApplyLinear(lin, encryptor.Encrypt(pt))
		if err != nil {
			return err
		}
		got := ctx.Enc.DecodeReals(decryptor.Decrypt(out))
		for j := range want {
			if d := math.Abs(got[j] - want[j]); d > 1e-4 {
				return fmt.Errorf("level %d, scale %g: output %d off by %g", level, scale, j, d)
			}
		}
		return nil
	}
	top, scale := ctx.Params.MaxLevel(), ctx.Params.DefaultScale()
	foreign := scale * (1 + 1.0/(1<<10))

	if err := apply(ctx, encryptor, decryptor, top, scale); err != nil {
		t.Fatal(err)
	}
	first := lin.plan.Load()
	if err := apply(ctx, encryptor, decryptor, top, scale); err != nil {
		t.Fatal(err)
	}
	if lin.plan.Load() != first {
		t.Fatal("a second input of the same shape compiled a new plan")
	}

	other, otherEnc, otherDec := newHEContext(t, 2, mlp.ServingRotations(128))
	for _, c := range []struct {
		name  string
		ctx   *Context
		enc   *ckks.Encryptor
		dec   *ckks.Decryptor
		level int
		scale float64
	}{
		// Each row differs from the one before in one field only.
		{"another scale", ctx, encryptor, decryptor, top, foreign},
		{"another level", ctx, encryptor, decryptor, top - 1, foreign},
		{"another encoder", other, otherEnc, otherDec, top - 1, foreign},
	} {
		before := lin.plan.Load()
		if err := apply(c.ctx, c.enc, c.dec, c.level, c.scale); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		p := lin.plan.Load()
		if p == before || p.enc != c.ctx.Enc || p.level != c.level || p.scale != c.scale {
			t.Fatalf("%s: the plan was not replaced by one for the new shape", c.name)
		}
	}

	t.Run("alternating shapes", func(t *testing.T) {
		shapes := [2]struct {
			level int
			scale float64
		}{{top, scale}, {top - 1, foreign}}
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 6 {
					s := shapes[(g+i)%2]
					if err := apply(ctx, encryptor, decryptor, s.level, s.scale); err != nil {
						t.Errorf("goroutine %d, run %d: %v", g, i, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}
