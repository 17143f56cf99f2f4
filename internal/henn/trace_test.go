package henn

import (
	"math/rand"
	"testing"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/telemetry"
)

// smallTestMLP builds an 8→8 linear layer plus an activation and a context
// holding its serving keys.
func smallTestMLP(t testing.TB) (*Context, *MLP, *ckks.Encryptor, *ckks.Decryptor) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	lin := &Linear{In: 8, Out: 8, B: make([]float64, 8)}
	lin.W = make([][]float64, 8)
	for i := range lin.W {
		lin.W[i] = make([]float64, 8)
		for j := range lin.W[i] {
			lin.W[i][j] = rng.NormFloat64() * 0.3
		}
	}
	act := &Activation{PAF: paf.MustNew(paf.FormF1G2), Scale: 2}
	mlp := &MLP{Layers: []any{lin, act}}
	ctx, encryptor, decryptor := newHEContext(t, mlp.LevelsRequired()+1, mlp.ServingRotations(128))
	return ctx, mlp, encryptor, decryptor
}

// TestUnitTraceStages runs one Unit with a trace attached and checks the
// stage breakdown: the CKKS primitive stages the serving path executes all
// appear, and their total accounts for the bulk of the unit's wall time —
// the property the /v1/traces endpoint's breakdown rests on. The "encode"
// stage is the layer's plan being built, so a second unit does not record it.
func TestUnitTraceStages(t *testing.T) {
	ctx, mlp, encryptor, _ := smallTestMLP(t)
	vec := make([]float64, ctx.Params.Slots())
	for j := 0; j < 8; j++ {
		vec[j] = 0.1 * float64(j)
	}
	pt, err := ctx.Enc.EncodeReals(vec, ctx.Params.MaxLevel(), ctx.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := encryptor.Encrypt(pt)

	tr := telemetry.NewTrace("unit-test")
	start := time.Now()
	if _, err := (Unit{Ctx: ctx, MLP: mlp, CT: ct, Trace: tr}).Run(); err != nil {
		t.Fatal(err)
	}
	tr.AddSpan("unit", start, time.Now())

	snap := tr.Snapshot()
	stages := map[string]telemetry.StageSnapshot{}
	var stageTotalUs int64
	for _, s := range snap.Stages {
		stages[s.Name] = s
		stageTotalUs += s.TotalUs
	}
	for _, want := range []string{"decompose_hoisted", "rotate_hoisted", "mul_plain", "encode", "rescale", "mul_const", "paf_eval", "add_plain"} {
		if stages[want].Count == 0 {
			t.Errorf("stage %q missing from trace; got %+v", want, snap.Stages)
		}
	}
	if len(snap.Spans) != 1 {
		t.Fatalf("spans = %+v, want the single unit span", snap.Spans)
	}
	unitUs := snap.Spans[0].DurUs
	if stageTotalUs > unitUs {
		t.Fatalf("stage total %dµs exceeds unit wall time %dµs", stageTotalUs, unitUs)
	}
	if stageTotalUs*2 < unitUs {
		t.Fatalf("stage total %dµs covers under half of unit wall time %dµs — instrumentation gap", stageTotalUs, unitUs)
	}

	// A traced run must not leave a trace behind on the shared context.
	if ctx.trace != nil {
		t.Fatal("shared Context mutated by WithTrace")
	}

	// The layer's plan is built now: a second unit encodes nothing.
	again := telemetry.NewTrace("unit-test-again")
	if _, err := (Unit{Ctx: ctx, MLP: mlp, CT: ct, Trace: again}).Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range again.Snapshot().Stages {
		if s.Name == "encode" {
			t.Fatalf("a unit on a built plan recorded %d encode samples", s.Count)
		}
	}
}

// TestUnitNoTrace: the untraced path records nothing and still works.
func TestUnitNoTrace(t *testing.T) {
	ctx, mlp, encryptor, _ := smallTestMLP(t)
	vec := make([]float64, ctx.Params.Slots())
	pt, err := ctx.Enc.EncodeReals(vec, ctx.Params.MaxLevel(), ctx.Params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Unit{Ctx: ctx, MLP: mlp, CT: encryptor.Encrypt(pt)}).Run(); err != nil {
		t.Fatal(err)
	}
}
