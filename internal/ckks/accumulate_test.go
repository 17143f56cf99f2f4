package ckks

import (
	"math/rand"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/ring"
)

// TestPlainSumMatchesMulPlainAdd: the lazily reduced sum returns exactly the
// residues of MulPlain + Add per term — for one term, for a block, and past
// ring.MaxAcc128Terms, where the accumulator folds mid-sum. MulPlainThenAdd,
// Sum and Release read their terms and nothing else: every ciphertext and
// plaintext is byte-identical afterwards.
func TestPlainSumMatchesMulPlainAdd(t *testing.T) {
	tc := newTestContext(t, testLit)
	rng := rand.New(rand.NewSource(61))
	level := tc.params.MaxLevel() - 1
	const terms = 2*ring.MaxAcc128Terms + 3

	cts := make([]*Ciphertext, terms)
	pts := make([]*Plaintext, terms)
	cts0 := make([]*Ciphertext, terms)
	pts0 := make([]*ring.Poly, terms)
	for i := range cts {
		pt, err := tc.enc.Encode(randomComplex(rng, tc.params.Slots(), 1), tc.params.MaxLevel(), tc.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = tc.encr.Encrypt(pt)
		if pts[i], err = tc.enc.Encode(randomComplex(rng, tc.params.Slots(), 1), level, tc.params.DefaultScale()); err != nil {
			t.Fatal(err)
		}
		cts0[i], pts0[i] = cts[i].CopyNew(), pts[i].Value.CopyNew()
	}

	sum := tc.eval.NewPlainSum(level)
	var want *Ciphertext
	for i := range cts {
		term := tc.eval.MulPlain(cts[i], pts[i])
		if want == nil {
			want = term
		} else {
			var err error
			if want, err = tc.eval.Add(want, term); err != nil {
				t.Fatal(err)
			}
		}
		if err := sum.MulPlainThenAdd(cts[i], pts[i]); err != nil {
			t.Fatal(err)
		}
		if n := i + 1; n != 1 && n != 7 && n != terms {
			continue
		}
		// A second sum over the same prefix, so the running one keeps growing.
		prefix := tc.eval.NewPlainSum(level)
		for j := 0; j <= i; j++ {
			if err := prefix.MulPlainThenAdd(cts[j], pts[j]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := prefix.Sum()
		if err != nil {
			t.Fatal(err)
		}
		if !got.C0.Equal(want.C0) || !got.C1.Equal(want.C1) || got.Level != want.Level || got.Scale != want.Scale {
			t.Fatalf("%d terms: lazily reduced sum differs from MulPlain+Add", i+1)
		}
		tc.eval.Recycle(got)
		prefix.Release() // empty after Sum: a no-op
	}
	sum.Release()
	for i := range cts {
		if !ctEqual(cts[i], cts0[i]) || !pts[i].Value.Equal(pts0[i]) {
			t.Fatalf("term %d: the sum modified an operand", i)
		}
	}
}

func TestPlainSumRejectsBadTerms(t *testing.T) {
	tc := newTestContext(t, testLit)
	top := tc.params.MaxLevel()
	encode := func(level int, scale float64) *Plaintext {
		pt, err := tc.enc.Encode(make([]complex128, tc.params.Slots()), level, scale)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	ct := tc.encr.Encrypt(encode(top, tc.params.DefaultScale()))

	sum := tc.eval.NewPlainSum(top)
	defer sum.Release()
	if _, err := sum.Sum(); err == nil {
		t.Error("Sum of no terms succeeded")
	}
	if err := sum.MulPlainThenAdd(ct, encode(top-1, tc.params.DefaultScale())); err == nil {
		t.Error("a plaintext below the sum's level was accepted")
	}
	if err := sum.MulPlainThenAdd(tc.eval.DropLevel(ct, top-1), encode(top, tc.params.DefaultScale())); err == nil {
		t.Error("a ciphertext below the sum's level was accepted")
	}
	if err := sum.MulPlainThenAdd(ct, encode(top, tc.params.DefaultScale())); err != nil {
		t.Fatal(err)
	}
	if err := sum.MulPlainThenAdd(ct, encode(top, 2*tc.params.DefaultScale())); err == nil {
		t.Error("a term at a different scale was accepted")
	}
}

// TestAddInPlaceMatchesAdd: AddInPlace writes its accumulator and nothing
// else — the addend is byte-identical afterwards — and Recycle nils only the
// ciphertext it is handed.
func TestAddInPlaceMatchesAdd(t *testing.T) {
	tc := newTestContext(t, testLit)
	rng := rand.New(rand.NewSource(62))
	fresh := func() *Ciphertext {
		pt, err := tc.enc.Encode(randomComplex(rng, tc.params.Slots(), 1), tc.params.MaxLevel(), tc.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		return tc.encr.Encrypt(pt)
	}
	a, b := fresh(), fresh()
	b0 := b.CopyNew()
	want, err := tc.eval.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.eval.AddInPlace(a, b); err != nil {
		t.Fatal(err)
	}
	if !a.C0.Equal(want.C0) || !a.C1.Equal(want.C1) {
		t.Fatal("AddInPlace differs from Add")
	}
	if !ctEqual(b, b0) {
		t.Fatal("AddInPlace modified its addend")
	}
	a0 := a.CopyNew()
	tc.eval.Recycle(want)
	if want.C0 != nil || want.C1 != nil {
		t.Fatal("Recycle left its ciphertext's polys in place")
	}
	if !ctEqual(a, a0) || !ctEqual(b, b0) {
		t.Fatal("Recycle touched a ciphertext it was not handed")
	}
	b.Scale *= 2
	if err := tc.eval.AddInPlace(a, b); err == nil {
		t.Error("mismatched scales were accepted")
	}
	if err := tc.eval.AddInPlace(a, tc.eval.DropLevel(fresh(), 1)); err == nil {
		t.Error("a lower-level addend was accepted")
	}
}
