package ring

import (
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// --- worker pool --------------------------------------------------------------

// The TestForEachLimb cases drive ForEachWorker the way every limb-wise fan
// does (forLimbs, the key switch's digit and limb loops): nil setup, the
// worker identity ignored.

func TestForEachLimbCoversEveryIndexOnce(t *testing.T) {
	defer SetParallelism(0)
	for _, workers := range []int{1, 2, 4, 16} {
		SetParallelism(workers)
		for _, jobs := range []int{0, 1, 3, 7, 64} {
			counts := make([]atomic.Int32, max(jobs, 1))
			// Large costPerJob forces the parallel path past the threshold.
			ForEachWorker(jobs, MinParallelWork, nil, func(_, i int) {
				counts[i].Add(1)
			})
			for i := 0; i < jobs; i++ {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d jobs=%d: index %d ran %d times", workers, jobs, i, got)
				}
			}
		}
	}
}

func TestForEachLimbSmallJobsStaySerial(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(8)
	// Below the work threshold the indices must run in order on the calling
	// goroutine; record the order to prove it.
	var order []int
	ForEachWorker(4, 1, nil, func(_, i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial fallback ran out of order: %v", order)
		}
	}
}

func TestForEachLimbNestedDoesNotDeadlock(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	var total atomic.Int32
	ForEachWorker(4, MinParallelWork, nil, func(_, i int) {
		// The nested call must detect the in-flight fan-out and run serially.
		ForEachWorker(4, MinParallelWork, nil, func(_, j int) {
			total.Add(1)
		})
	})
	if total.Load() != 16 {
		t.Fatalf("nested fan-out ran %d inner jobs, want 16", total.Load())
	}
}

func TestForEachLimbConcurrentCallers(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				ForEachWorker(5, MinParallelWork, nil, func(_, i int) { total.Add(1) })
			}
		}()
	}
	wg.Wait()
	if total.Load() != 8*50*5 {
		t.Fatalf("concurrent callers ran %d jobs, want %d", total.Load(), 8*50*5)
	}
}

func TestForEachWorkerCoversEveryIndexOnce(t *testing.T) {
	defer SetParallelism(0)
	for _, workers := range []int{1, 2, 4, 16} {
		SetParallelism(workers)
		for _, jobs := range []int{1, 3, 7, 64} {
			counts := make([]atomic.Int32, jobs)
			var setupWorkers atomic.Int32
			var setupCalls atomic.Int32
			ForEachWorker(jobs, MinParallelWork, func(w int) {
				setupCalls.Add(1)
				setupWorkers.Store(int32(w))
				if w < 1 || w > min(workers, jobs) {
					t.Errorf("workers=%d jobs=%d: setup got width %d", workers, jobs, w)
				}
			}, func(w, i int) {
				if int32(w) >= setupWorkers.Load() {
					t.Errorf("worker id %d out of announced range %d", w, setupWorkers.Load())
				}
				counts[i].Add(1)
			})
			if setupCalls.Load() != 1 {
				t.Fatalf("setup called %d times, want 1", setupCalls.Load())
			}
			for i := 0; i < jobs; i++ {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d jobs=%d: index %d ran %d times", workers, jobs, i, got)
				}
			}
		}
	}
}

func TestForEachWorkerSerialFallback(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(8)
	// Below the work threshold: one worker, in-order, on the caller.
	var order []int
	ForEachWorker(4, 1, func(w int) {
		if w != 1 {
			t.Fatalf("serial fallback announced %d workers", w)
		}
	}, func(w, i int) {
		if w != 0 {
			t.Fatalf("serial fallback used worker id %d", w)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial fallback ran out of order: %v", order)
		}
	}
}

func TestForEachWorkerNestedLimbFanStaysSerial(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	var total atomic.Int32
	ForEachWorker(4, MinParallelWork, func(w int) {}, func(w, i int) {
		// The worker fan holds the gate, so the nested limb fan must run
		// serially rather than spawning a second tier of goroutines.
		ForEachWorker(4, MinParallelWork, nil, func(_, j int) {
			total.Add(1)
		})
	})
	if total.Load() != 16 {
		t.Fatalf("nested fan ran %d inner jobs, want 16", total.Load())
	}
}

// --- parallel vs serial bit-identity ------------------------------------------

func TestRingOpsParallelMatchSerial(t *testing.T) {
	defer SetParallelism(0)
	primes, err := GenPrimes(45, 512, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(512, primes)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(r, 7)
	a := s.Uniform(5)
	b := s.Uniform(5)
	scalar := make([]uint64, 6)
	for i := range scalar {
		scalar[i] = uint64(3 + i)
	}

	type op struct {
		name string
		run  func(out *Poly)
	}
	ops := []op{
		{"Add", func(out *Poly) { r.Add(a, b, out) }},
		{"Neg", func(out *Poly) { r.Neg(a, out) }},
		{"MulCoeffs", func(out *Poly) { r.MulCoeffs(a, b, out) }},
		{"MulCoeffsThenAdd", func(out *Poly) { r.MulCoeffsThenAdd(a, b, out) }},
		{"MulScalar", func(out *Poly) { r.MulScalar(a, scalar, out) }},
	}
	for _, o := range ops {
		SetParallelism(1)
		serial := r.NewPoly(5)
		o.run(serial)
		SetParallelism(8)
		parallel := r.NewPoly(5)
		o.run(parallel)
		if !serial.Equal(parallel) {
			t.Errorf("%s: parallel result differs from serial", o.name)
		}
	}

	// In-place transforms: run NTT∘INTT under both settings on copies.
	SetParallelism(1)
	pSerial := a.CopyNew()
	r.NTT(pSerial)
	r.INTT(pSerial)
	SetParallelism(8)
	pParallel := a.CopyNew()
	r.NTT(pParallel)
	r.INTT(pParallel)
	if !pSerial.Equal(pParallel) || !pSerial.Equal(a) {
		t.Error("NTT/INTT: parallel path differs from serial or round-trip broken")
	}
}

// --- NTT properties across sizes ----------------------------------------------

func TestNTTRoundTripManySizes(t *testing.T) {
	for _, n := range []int{16, 64, 256, 1024, 4096, 8192} {
		q, err := GenPrime(45, n, nil)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		m, err := NewModulus(q, n)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % q
		}
		orig := append([]uint64(nil), a...)
		m.NTT(a)
		m.INTT(a)
		for i := range a {
			if a[i] != orig[i] {
				t.Fatalf("N=%d: NTT∘INTT not identity at %d", n, i)
			}
		}
	}
}

// --- modular arithmetic vs math/big -------------------------------------------

// bigRef computes the expected value of each primitive with math/big.
func bigRef(op string, a, b, q uint64) uint64 {
	A := new(big.Int).SetUint64(a)
	B := new(big.Int).SetUint64(b)
	Q := new(big.Int).SetUint64(q)
	out := new(big.Int)
	switch op {
	case "add":
		out.Add(A, B)
	case "sub":
		out.Sub(A, B)
	case "mul":
		out.Mul(A, B)
	case "pow":
		return out.Exp(A, B, Q).Uint64()
	default:
		panic("unknown op " + op)
	}
	return out.Mod(out, Q).Uint64()
}

func edgeValues(q uint64) []uint64 {
	return []uint64{0, 1, 2, q >> 1, (q >> 1) + 1, q - 2, q - 1}
}

func TestModArithmeticAgainstBig(t *testing.T) {
	qs := []uint64{}
	for _, bits := range []int{30, 45, 58, 61} {
		q, err := GenPrime(bits, 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	rng := rand.New(rand.NewSource(99))
	for _, q := range qs {
		vals := edgeValues(q)
		for i := 0; i < 32; i++ {
			vals = append(vals, rng.Uint64()%q)
		}
		for _, a := range vals {
			for _, b := range vals {
				if got, want := AddMod(a, b, q), bigRef("add", a, b, q); got != want {
					t.Fatalf("AddMod(%d,%d,%d)=%d want %d", a, b, q, got, want)
				}
				if got, want := SubMod(a, b, q), bigRef("sub", a, b, q); got != want {
					t.Fatalf("SubMod(%d,%d,%d)=%d want %d", a, b, q, got, want)
				}
				if got, want := MulMod(a, b, q), bigRef("mul", a, b, q); got != want {
					t.Fatalf("MulMod(%d,%d,%d)=%d want %d", a, b, q, got, want)
				}
				if got, want := MulModShoup(a, b, shoupPrecomp(b, q), q), bigRef("mul", a, b, q); got != want {
					t.Fatalf("MulModShoup(%d,%d,%d)=%d want %d", a, b, q, got, want)
				}
			}
			// PowMod with a handful of exponents including edge cases.
			for _, e := range []uint64{0, 1, 2, 3, q - 1, q - 2, 1 << 40} {
				if got, want := PowMod(a, e, q), bigRef("pow", a, e, q); got != want {
					t.Fatalf("PowMod(%d,%d,%d)=%d want %d", a, e, q, got, want)
				}
			}
		}
	}
}

// fuzzPrimes is a fixed set of NTT-friendly primes of assorted sizes used to
// reduce arbitrary fuzz inputs into the primitives' contract (a, b < q).
var fuzzPrimes = func() []uint64 {
	out := []uint64{}
	for _, bits := range []int{30, 45, 61} {
		q, err := GenPrime(bits, 16, nil)
		if err != nil {
			panic(err)
		}
		out = append(out, q)
	}
	return out
}()

func FuzzAddSubMod(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(0))
	f.Add(^uint64(0), ^uint64(0), uint8(2))
	f.Fuzz(func(t *testing.T, a, b uint64, qi uint8) {
		q := fuzzPrimes[int(qi)%len(fuzzPrimes)]
		a, b = a%q, b%q
		if got, want := AddMod(a, b, q), bigRef("add", a, b, q); got != want {
			t.Fatalf("AddMod(%d,%d,%d)=%d want %d", a, b, q, got, want)
		}
		if got, want := SubMod(a, b, q), bigRef("sub", a, b, q); got != want {
			t.Fatalf("SubMod(%d,%d,%d)=%d want %d", a, b, q, got, want)
		}
	})
}

func FuzzMulModShoup(f *testing.F) {
	f.Add(uint64(1), uint64(1), uint8(0))
	f.Add(^uint64(0), ^uint64(0), uint8(1))
	f.Fuzz(func(t *testing.T, a, w uint64, qi uint8) {
		q := fuzzPrimes[int(qi)%len(fuzzPrimes)]
		a, w = a%q, w%q
		want := bigRef("mul", a, w, q)
		if got := MulMod(a, w, q); got != want {
			t.Fatalf("MulMod(%d,%d,%d)=%d want %d", a, w, q, got, want)
		}
		if got := MulModShoup(a, w, shoupPrecomp(w, q), q); got != want {
			t.Fatalf("MulModShoup(%d,%d,%d)=%d want %d", a, w, q, got, want)
		}
	})
}

func FuzzPowMod(f *testing.F) {
	f.Add(uint64(2), uint64(10), uint8(0))
	f.Fuzz(func(t *testing.T, a, e uint64, qi uint8) {
		q := fuzzPrimes[int(qi)%len(fuzzPrimes)]
		a %= q
		if got, want := PowMod(a, e, q), bigRef("pow", a, e, q); got != want {
			t.Fatalf("PowMod(%d,%d,%d)=%d want %d", a, e, q, got, want)
		}
	})
}

// --- pool ---------------------------------------------------------------------

func TestGetPolyReturnsZeroed(t *testing.T) {
	primes, err := GenPrimes(45, 64, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(64, primes)
	if err != nil {
		t.Fatal(err)
	}
	p := r.GetPoly(2)
	for i := range p.Coeffs {
		p.Coeffs[i][0] = 7
	}
	r.PutPoly(p)
	q := r.GetPoly(2)
	for i := range q.Coeffs {
		for j, c := range q.Coeffs[i] {
			if c != 0 {
				t.Fatalf("recycled poly not zeroed at limb %d coeff %d", i, j)
			}
		}
	}
}

func TestPutPolyIgnoresForeignBuffers(t *testing.T) {
	primes, err := GenPrimes(45, 64, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(64, primes)
	if err != nil {
		t.Fatal(err)
	}
	r.PutPoly(nil) // must be a no-op
	// A poly with the wrong degree must be rejected, not pooled.
	wrong := &Poly{Coeffs: [][]uint64{make([]uint64, 32)}}
	r.PutPoly(wrong)
	got := r.GetPoly(0)
	if len(got.Coeffs[0]) != 64 {
		t.Fatalf("pool handed back a foreign %d-coefficient buffer", len(got.Coeffs[0]))
	}
	// A truncated view aliases live storage and must be rejected: recycling
	// it would let a future GetPoly hand out (and zero) the parent's limbs.
	parent := r.NewPoly(1)
	parent.Coeffs[0][0] = 99
	r.PutPoly(parent.Truncate(0))
	fresh := r.GetPoly(0)
	if &fresh.Coeffs[0][0] == &parent.Coeffs[0][0] {
		t.Fatal("pool recycled a truncated view aliasing a live polynomial")
	}
	if parent.Coeffs[0][0] != 99 {
		t.Fatal("recycling a truncated view corrupted the parent polynomial")
	}
	// Same-level views (cap == len) must be rejected too.
	r.PutPoly(parent.Truncate(1))
	fresh = r.GetPoly(1)
	if &fresh.Coeffs[0][0] == &parent.Coeffs[0][0] {
		t.Fatal("pool recycled a same-level view aliasing a live polynomial")
	}
	// Scratch recycling obeys the same size rule.
	r.PutScratch(make([]uint64, 16))
	if buf := r.GetScratch(); len(buf) != 64 {
		t.Fatalf("scratch pool handed back a %d-length buffer", len(buf))
	}
}
