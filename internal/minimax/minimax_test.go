package minimax

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveLinearKnownSystem(t *testing.T) {
	a := [][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}}
	b := []float64{8, -11, -3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d]=%g want %g", i, x[i], want[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := SolveLinear(a, b); err == nil {
		t.Fatal("expected singular-system error")
	}
}

func TestSolveLinearRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		a := make([][]float64, n)
		orig := make([][]float64, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = make([]float64, n)
			orig[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				a[i][j] = r.NormFloat64()
				orig[i][j] = a[i][j]
			}
			a[i][i] += float64(n) // diagonally dominant => well conditioned
			orig[i][i] = a[i][i]
			var s float64
			for j := 0; j < n; j++ {
				s += orig[i][j] * x[j]
			}
			b[i] = s
		}
		got, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestApproxSignOddEquioscillation(t *testing.T) {
	coeffs, e, err := ApproxSignOdd(7, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(coeffs) != 4 {
		t.Fatalf("expected 4 odd coefficients, got %d", len(coeffs))
	}
	if e <= 0 || e >= 1 {
		t.Fatalf("suspicious minimax error %g", e)
	}
	// Max error on a fine grid should match the reported error closely and
	// hold over the whole domain.
	var worst float64
	for i := 0; i <= 10000; i++ {
		x := 0.05 + 0.95*float64(i)/10000
		d := math.Abs(evalOdd(coeffs, x) - 1)
		if d > worst {
			worst = d
		}
	}
	if math.Abs(worst-e) > 1e-6 {
		t.Fatalf("reported error %g but grid error %g", e, worst)
	}
	// Odd symmetry: p(-x) = -p(x).
	for _, x := range []float64{0.1, 0.33, 0.9} {
		if math.Abs(evalOdd(coeffs, -x)+evalOdd(coeffs, x)) > 1e-12 {
			t.Fatal("polynomial not odd")
		}
	}
}

func TestApproxSignOddErrorDecreasesWithDegree(t *testing.T) {
	var prev float64 = math.Inf(1)
	for _, d := range []int{3, 5, 7, 9, 13} {
		_, e, err := ApproxSignOdd(d, 0.1, 1)
		if err != nil {
			t.Fatalf("degree %d: %v", d, err)
		}
		if e >= prev {
			t.Fatalf("minimax error did not decrease: deg %d err %g (prev %g)", d, e, prev)
		}
		prev = e
	}
}

func TestApproxSignOddValidation(t *testing.T) {
	if _, _, err := ApproxSignOdd(4, 0.1, 1); err == nil {
		t.Fatal("even degree should fail")
	}
	if _, _, err := ApproxSignOdd(3, 0, 1); err == nil {
		t.Fatal("a=0 should fail")
	}
	if _, _, err := ApproxSignOdd(3, 1, 0.5); err == nil {
		t.Fatal("a>b should fail")
	}
}

func TestCompositeSignPrecision(t *testing.T) {
	stages, e, err := CompositeSign([]int{7, 7, 13}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("expected 3 stages")
	}
	if e > 2e-2 {
		t.Fatalf("final stage error %g too large", e)
	}
	// End-to-end: |composite(x) - sign(x)| small for |x| in [eps, 1].
	evalComposite := func(x float64) float64 {
		for _, s := range stages {
			x = evalOdd(s, x)
		}
		return x
	}
	for i := 0; i <= 2000; i++ {
		x := 0.01 + 0.99*float64(i)/2000
		if d := math.Abs(evalComposite(x) - 1); d > 2e-2 {
			t.Fatalf("composite error %g at x=%g", d, x)
		}
		if d := math.Abs(evalComposite(-x) + 1); d > 2e-2 {
			t.Fatalf("composite error %g at x=-%g", d, x)
		}
	}
}
