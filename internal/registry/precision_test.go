package registry

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/paf"
)

// boundedLinear draws a dense layer whose rows satisfy Σ|w|+|b| = bound, so
// every output of an input in [−1,1]^in stays inside [−bound, bound] — the
// Static-Scale condition of the activation that follows it.
func boundedLinear(rng *rand.Rand, in, out int, bound float64) *henn.Linear {
	l := &henn.Linear{In: in, Out: out, B: make([]float64, out), W: make([][]float64, out)}
	for i := range l.W {
		l.W[i] = make([]float64, in)
		sum := 0.0
		for j := range l.W[i] {
			l.W[i][j] = rng.NormFloat64()
			sum += math.Abs(l.W[i][j])
		}
		l.B[i] = rng.NormFloat64()
		sum += math.Abs(l.B[i])
		for j := range l.W[i] {
			l.W[i][j] *= bound / sum
		}
		l.B[i] *= bound / sum
	}
	return l
}

// precisionStack is a client and a server for one model on one literal.
type precisionStack struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
	ctx    *henn.Context
}

func newPrecisionStack(t *testing.T, mlp *henn.MLP, lit ckks.ParametersLiteral) *precisionStack {
	t.Helper()
	params, err := ckks.NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, 5)
	sk := kg.GenSecretKey()
	enc := ckks.NewEncoder(params)
	eval := ckks.NewEvaluator(params, kg.GenRelinearizationKey(sk)).
		WithRotationKeys(kg.GenRotationKeys(sk, mlp.ServingRotations(params.Slots()), false))
	return &precisionStack{
		params: params, enc: enc,
		encr: ckks.NewEncryptor(params, kg.GenPublicKey(sk), 6),
		decr: ckks.NewDecryptor(params, sk),
		ctx:  henn.NewContext(params, enc, eval),
	}
}

func (s *precisionStack) encrypt(t *testing.T, x []float64) *ckks.Ciphertext {
	t.Helper()
	vec := make([]float64, s.params.Slots())
	copy(vec, x)
	pt, err := s.enc.EncodeReals(vec, s.params.MaxLevel(), s.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	return s.encr.Encrypt(pt)
}

// TestPrecisionTable is the serving half of the rule in ckks.TestPrecisionTable:
// worst-slot precision of a 128→128 ApplyLinear and of a whole Unit.Run per
// PAF form, each on its exact-depth chain at LogN 10, with one special prime
// and with the α ParamsForMLP picks. Floors are the values measured at the
// commit before grouped digits, less half a bit; EXPERIMENTS.md ("Grouped
// digits") has both columns.
func TestPrecisionTable(t *testing.T) {
	floors := map[string]float64{
		"apply-linear":   33.20 - 0.5,
		paf.FormAlpha10:  33.22 - 0.5,
		paf.FormF1F1G1G1: 33.19 - 0.5,
		paf.FormAlpha7:   34.12 - 0.5,
		paf.FormF2G3:     34.28 - 0.5,
		paf.FormF2G2:     34.48 - 0.5,
		paf.FormF1G2:     35.01 - 0.5,
	}
	check := func(name, row string, want, got []float64) {
		stats := ckks.PrecisionReals(want, got[:len(want)])
		t.Logf("%-8s %-13s %v", name, row, stats)
		if stats.MinPrec < floors[row] {
			t.Errorf("%s: %s worst-slot precision %.2f bits is below its floor %.2f", name, row, stats.MinPrec, floors[row])
		}
	}
	for _, form := range paf.AllFormsWithBaseline {
		rng := rand.New(rand.NewSource(17))
		width := 32
		if form == paf.FormF1G2 {
			width = 128 // hennbench's linear_heavy width; the first layer is the ApplyLinear row
		}
		first := boundedLinear(rng, width, width, 0.9*4)
		mlp := &henn.MLP{Layers: []any{first, &henn.Activation{PAF: paf.MustNew(form), Scale: 4}, boundedLinear(rng, width, width, 1)}}
		x := make([]float64, width)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		serving, err := ParamsForMLP(mlp, 10)
		if err != nil {
			t.Fatal(err)
		}
		single := serving
		single.LogP = serving.LogP[:1]
		for _, lit := range []ckks.ParametersLiteral{single, serving} {
			name := fmt.Sprintf("alpha=%d", len(lit.LogP))
			s := newPrecisionStack(t, mlp, lit)
			ct := s.encrypt(t, x)
			if form == paf.FormF1G2 {
				hidden, err := s.ctx.ApplyLinear(first, ct)
				if err != nil {
					t.Fatal(err)
				}
				plain := (&henn.MLP{Layers: []any{first}}).InferPlain(x)
				check(name, "apply-linear", plain, s.enc.DecodeReals(s.decr.Decrypt(hidden)))
			}
			out, err := henn.Unit{Ctx: s.ctx, MLP: mlp, CT: ct}.Run()
			if err != nil {
				t.Fatal(err)
			}
			check(name, form, mlp.InferPlain(x), s.enc.DecodeReals(s.decr.Decrypt(out)))
		}
	}
}
