package ckks

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestPrecisionStats pins the lattigo-6.1 definition: per-slot −log2 error,
// then min / median / mean of those.
func TestPrecisionStats(t *testing.T) {
	want := []complex128{1, 2, 3, 4}
	got := []complex128{1 + 0.25i, 2.5, 3, 4.125} // per-slot precision 2, 1, +Inf, 3 bits
	s := Precision(want, got)
	if s.Slots != 4 || s.MinPrec != 1 || s.MedianPrec != 3 || !math.IsInf(s.MeanPrec, 1) {
		t.Fatalf("got %+v, want min 1, median 3 (upper), infinite mean over 4 slots", s)
	}
	s = Precision(want[:2], got[:2])
	if s.MinPrec != 1 || s.MeanPrec != 1.5 {
		t.Fatalf("got %+v, want min 1, mean 1.5", s)
	}
	if exact := Precision(want, want); !math.IsInf(exact.MinPrec, 1) {
		t.Fatal("an exact match has infinite precision")
	}
	r := PrecisionReals([]float64{1, 2}, []float64{1, 2.5})
	if r.MinPrec != 1 || r.String() == "" {
		t.Fatalf("reals: %+v %q", r, r.String())
	}
}

// precisionLit is hennbench's 128-wide serving chain at the benchmark's ring
// degree; the table below runs it with one special prime and with the three
// registry.ParamsForMLP gives it.
func precisionLit(logP ...int) ParametersLiteral {
	return ParametersLiteral{LogN: 10, LogQ: []int{55, 45, 45, 45, 45, 45, 45, 45, 45, 45}, LogP: logP, LogScale: 45}
}

// TestPrecisionTable is the rule that lets an evaluator digest move (ROADMAP
// 2b): a change to key switching may alter the bytes an operation returns
// only if the worst-slot precision of each operation stays at or above its
// floor. Floors are the values measured at the commit before grouped digits
// (per-prime gadget, one special prime), less half a bit; the same floors
// bind α = 1 and the serving α, since both run the same code. EXPERIMENTS.md
// ("Grouped digits") has the parent and current columns side by side.
func TestPrecisionTable(t *testing.T) {
	floors := map[string]float64{
		"rotate":            30.50 - 0.5,
		"rotate-hoisted":    29.18 - 0.5,
		"mul-relin-rescale": 30.31 - 0.5,
	}
	for _, logP := range [][]int{{55}, {55, 55, 55}} {
		name := fmt.Sprintf("alpha=%d", len(logP))
		tc := newTestContext(t, precisionLit(logP...))
		tc.eval.WithRotationKeys(tc.kg.GenRotationKeys(tc.sk, []int{5}, false))
		slots := tc.params.Slots()
		values := randomComplex(rand.New(rand.NewSource(71)), slots, 1)
		pt, err := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		ct := tc.encr.Encrypt(pt)
		rotated, squared := make([]complex128, slots), make([]complex128, slots)
		for i := range values {
			rotated[i] = values[(i+5)%slots]
			squared[i] = values[i] * values[i]
		}
		dec := tc.eval.DecomposeHoisted(ct)
		rot, err1 := tc.eval.Rotate(ct, 5)
		hoisted, err2 := tc.eval.RotateHoisted(dec, 5)
		sq, err3 := tc.eval.MulRelinRescale(ct, ct)
		dec.Release()
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatal(err1, err2, err3)
		}
		for _, c := range []struct {
			op   string
			got  *Ciphertext
			want []complex128
		}{
			{"rotate", rot, rotated},
			{"rotate-hoisted", hoisted, rotated},
			{"mul-relin-rescale", sq, squared},
		} {
			stats := Precision(c.want, tc.enc.Decode(tc.decr.Decrypt(c.got)))
			t.Logf("%s %-18s %v", name, c.op, stats)
			if stats.MinPrec < floors[c.op] {
				t.Errorf("%s: %s worst-slot precision %.2f bits is below its floor %.2f", name, c.op, stats.MinPrec, floors[c.op])
			}
		}
	}
}
