package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/hepoly"
	"github.com/efficientfhe/smartpaf/internal/paf"
)

// shapeMLP is in→hidden·form·hidden→out with zero weights: a literal depends
// on the layer widths and the PAF alone.
func shapeMLP(in, hidden, out int, form string) *henn.MLP {
	return &henn.MLP{Layers: []any{
		&henn.Linear{In: in, Out: hidden},
		&henn.Activation{PAF: paf.MustNew(form), Scale: 4},
		&henn.Linear{In: hidden, Out: out},
	}}
}

// TestExplicitRingLiteralsPinned pins, byte for byte, the literals an explicit
// ring gives hennbench's two model shapes and the demo model: no α fits the
// 128-bit bound of a ring this small, so each keeps ⌈limbs/4⌉ special primes.
// The digests are SHA-256 of ParametersLiteral.MarshalBinary.
func TestExplicitRingLiteralsPinned(t *testing.T) {
	demo := func(logN int) *henn.MLP {
		m, err := DemoModel(1, logN)
		if err != nil {
			t.Fatal(err)
		}
		return m.MLP
	}
	cases := []struct {
		name string
		mlp  *henn.MLP
		logN int
		want string
	}{
		{"linear_heavy", shapeMLP(128, 128, 4, paf.FormF1G2), 10, "254dfdb37fbb5151c877d632797a9bd42ca7a5f5429070d11e851eaf69f1f8fa"},
		{"paf_heavy", shapeMLP(8, 8, 4, paf.FormAlpha10), 10, "08334107695512c7f273cd5d82d102e36a381c7a106ae6e3d6b5d6f478f012fb"},
		{"demo@8", demo(8), 8, "058e9324a08acbf6c33a4d9860ecb9993f3dfe2a6e553e64044aaf00844de9d4"},
		{"demo@10", demo(10), 10, "254dfdb37fbb5151c877d632797a9bd42ca7a5f5429070d11e851eaf69f1f8fa"},
	}
	for _, c := range cases {
		lit, err := ParamsForMLP(c.mlp, c.logN)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := lit.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s at LogN %d: literal %+v digest %s, want %s", c.name, c.logN, lit, got, c.want)
		}
	}
}

// TestSelectedRingsMeetHEStandard walks every literal ckks.ChainLiteral
// selects in this repo — each PAF form's ReLU plus scaling (Table 4),
// hennbench's two model shapes and the demo model — and checks that each
// compiles under its ring's 128-bit bound, that the next smaller ring could
// not hold its chain even at α = 1, and the (N, α, bits) it lands on.
func TestSelectedRingsMeetHEStandard(t *testing.T) {
	type row struct {
		name   string
		levels int
		lit    ckks.ParametersLiteral
	}
	var rows []row
	want := map[string][3]int{ // name → N, α, logQP
		paf.FormF1G2:     {14, 1, 425},
		paf.FormF2G2:     {15, 3, 580},
		paf.FormF2G3:     {15, 3, 580},
		paf.FormAlpha7:   {15, 3, 580},
		paf.FormF1F1G1G1: {15, 3, 670},
		paf.FormAlpha10:  {15, 4, 815},
		"linear_heavy":   {15, 3, 625},
		"demo":           {15, 3, 625},
		"paf_heavy":      {15, 3, 850},
	}
	add := func(name string, levels int, lit ckks.ParametersLiteral, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows = append(rows, row{name, levels, lit})
	}
	for _, form := range paf.AllFormsWithBaseline {
		levels := hepoly.RequiredLevels(paf.MustNew(form))
		lit, err := ckks.ChainLiteral(0, levels, 0)
		add(form, levels, lit, err)
	}
	for name, mlp := range map[string]*henn.MLP{
		"linear_heavy": shapeMLP(128, 128, 4, paf.FormF1G2),
		"paf_heavy":    shapeMLP(8, 8, 4, paf.FormAlpha10),
	} {
		lit, err := ParamsForMLP(mlp, 0)
		add(name, mlp.LevelsRequired(), lit, err)
	}
	demo, err := DemoModel(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	add("demo", demo.MLP.LevelsRequired(), demo.Params, nil)

	ringOf := map[int]int{} // levels → selected LogN
	for _, r := range rows {
		params, err := ckks.NewParameters(r.lit)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		bound := ckks.MaxLogQP(r.lit.LogN)
		if logQP := params.TotalLogQP(); logQP > float64(bound) || !params.Compliant() {
			t.Errorf("%s: %.1f modulus bits exceed the %d-bit bound of N = 2^%d", r.name, logQP, bound, r.lit.LogN)
		}
		if got := len(r.lit.LogQ) - 1; got != r.levels {
			t.Errorf("%s: %d levels in the chain, want %d", r.name, got, r.levels)
		}
		chainBits := 55 // α = 1
		for _, b := range r.lit.LogQ {
			chainBits += b
		}
		if smaller := ckks.MaxLogQP(r.lit.LogN - 1); chainBits <= smaller {
			t.Errorf("%s: %d bits at α = 1 fit the %d-bit bound of N = 2^%d, yet 2^%d was selected", r.name, chainBits, smaller, r.lit.LogN-1, r.lit.LogN)
		}
		if got := [3]int{r.lit.LogN, len(r.lit.LogP), int(math.Round(params.TotalLogQP()))}; got != want[r.name] {
			t.Errorf("%s: (LogN, α, logQP) = %v, want %v", r.name, got, want[r.name])
		}
		// Rings are monotone in depth: a deeper chain never gets a smaller ring.
		for levels, logN := range ringOf {
			if (levels < r.levels && logN > r.lit.LogN) || (levels > r.levels && logN < r.lit.LogN) {
				t.Errorf("%s: %d levels on 2^%d, but %d levels on 2^%d", r.name, r.levels, r.lit.LogN, levels, logN)
			}
		}
		ringOf[r.levels] = r.lit.LogN
	}

	// 55 + 20·45 + 55 = 1010 bits: no ring in the table holds it.
	_, err = ckks.ChainLiteral(0, 20, 0)
	if err == nil || !strings.Contains(err.Error(), "1010") || !strings.Contains(err.Error(), "881") {
		t.Fatalf("a 20-level chain: error %v, want one naming 1010 bits and the 881-bit cap", err)
	}
}
