package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	a := New(2, 3, 4)
	if a.Numel() != 24 || a.Shape[1] != 3 {
		t.Fatalf("shape bookkeeping wrong: %v", a.Shape)
	}
	b := a.Reshape(6, 4)
	b.Data[0] = 7
	if a.Data[0] != 7 {
		t.Fatal("reshape should share data")
	}
	c := a.Clone()
	c.Data[0] = 9
	if a.Data[0] == 9 {
		t.Fatal("clone should copy data")
	}
}

func TestFromSliceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched shape")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("matmul[%d] = %g want %g", i, c.Data[i], want[i])
		}
	}
}

func TestMatMulTransVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 5)
	b := New(5, 3)
	a.FillRandN(rng, 1)
	b.FillRandN(rng, 1)
	ref := MatMul(a, b)

	// aT stored transposed: at[k,m] with at[p,i] = a[i,p].
	at := New(5, 4)
	for i := 0; i < 4; i++ {
		for p := 0; p < 5; p++ {
			at.Data[p*4+i] = a.Data[i*5+p]
		}
	}
	got := MatMulTransA(at, b)
	for i := range ref.Data {
		if math.Abs(got.Data[i]-ref.Data[i]) > 1e-12 {
			t.Fatal("MatMulTransA disagrees with MatMul")
		}
	}

	bt := New(3, 5)
	for p := 0; p < 5; p++ {
		for j := 0; j < 3; j++ {
			bt.Data[j*5+p] = b.Data[p*3+j]
		}
	}
	got2 := MatMulTransB(a, bt)
	for i := range ref.Data {
		if math.Abs(got2.Data[i]-ref.Data[i]) > 1e-12 {
			t.Fatal("MatMulTransB disagrees with MatMul")
		}
	}
}

func TestMaxAbs(t *testing.T) {
	a := FromSlice([]float64{0.5, -2.25, 1}, 3)
	if a.MaxAbs() != 2.25 {
		t.Fatalf("MaxAbs = %g", a.MaxAbs())
	}
}

func TestGeometry(t *testing.T) {
	g := Geometry(3, 32, 32, 3, 1, 1)
	if g.OutH != 32 || g.OutW != 32 {
		t.Fatalf("same-pad geometry wrong: %+v", g)
	}
	g = Geometry(3, 32, 32, 2, 2, 0)
	if g.OutH != 16 || g.OutW != 16 {
		t.Fatalf("pool geometry wrong: %+v", g)
	}
}

// TestTapsMatchesBoundsCheck: the range Taps returns holds exactly the
// kernel offsets a per-tap bounds check admits, for every output index of
// every small geometry, padding wider than the kernel included.
func TestTapsMatchesBoundsCheck(t *testing.T) {
	for kernel := 1; kernel <= 4; kernel++ {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad <= 4; pad++ {
				for in := 1; in <= 7; in++ {
					g := Geometry(1, in, in, kernel, stride, pad)
					for o := 0; o < g.OutH; o++ {
						lo, hi := g.Taps(o, in)
						for k := 0; k < kernel; k++ {
							i := o*stride + k - pad
							if inside, inRange := i >= 0 && i < in, k >= lo && k < hi; inside != inRange {
								t.Fatalf("kernel %d stride %d pad %d in %d: output %d tap %d reads %d, range [%d, %d)",
									kernel, stride, pad, in, o, k, i, lo, hi)
							}
						}
					}
				}
			}
		}
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1: columns are exactly the pixels.
	x := New(1, 2, 3, 3)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	g := Geometry(2, 3, 3, 1, 1, 0)
	cols := Im2Col(x, g)
	if cols.Shape[0] != 9 || cols.Shape[1] != 2 {
		t.Fatalf("cols shape %v", cols.Shape)
	}
	for pix := 0; pix < 9; pix++ {
		if cols.Data[pix*2] != float64(pix) || cols.Data[pix*2+1] != float64(9+pix) {
			t.Fatalf("pixel %d mis-gathered", pix)
		}
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the defining adjoint property that
	// conv backward relies on.
	rng := rand.New(rand.NewSource(2))
	cfg := &quick.Config{MaxCount: 20, Rand: rng}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := Geometry(2, 5, 5, 3, 2, 1)
		x := New(2, 2, 5, 5)
		x.FillRandN(r, 1)
		cols := Im2Col(x, g)
		y := New(cols.Shape[0], cols.Shape[1])
		y.FillRandN(r, 1)
		var lhs float64
		for i := range y.Data {
			lhs += cols.Data[i] * y.Data[i]
		}
		back := Col2Im(y, 2, g)
		var rhs float64
		for i := range x.Data {
			rhs += x.Data[i] * back.Data[i]
		}
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(lhs))
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}
