package ring

import (
	"math/big"
	"math/rand"
	"testing"
)

// refNTT and refINTT are the fully reduced radix-2 butterflies the package
// used before the transforms went lazy and then radix 4, kept as the
// reference: one stage per pass, every value a canonical residue after every
// step. Modulus.NTT/INTT must return exactly the same residues.
func refNTT(m *Modulus, a []uint64) {
	n, q := m.N, m.Q
	t := n
	for stage := 1; stage < n; stage <<= 1 {
		t >>= 1
		for i := 0; i < stage; i++ {
			w, wShoup := m.psiFwd[stage+i], m.psiFwdShoup[stage+i]
			j1 := 2 * i * t
			for j := j1; j < j1+t; j++ {
				u := a[j]
				v := MulModShoup(a[j+t], w, wShoup, q)
				a[j] = AddMod(u, v, q)
				a[j+t] = SubMod(u, v, q)
			}
		}
	}
}

func refINTT(m *Modulus, a []uint64) {
	n, q := m.N, m.Q
	t := 1
	for stage := n >> 1; stage >= 1; stage >>= 1 {
		j1 := 0
		for i := 0; i < stage; i++ {
			w, wShoup := m.psiInvRev[stage+i], m.psiInvShoup[stage+i]
			for j := j1; j < j1+t; j++ {
				u, v := a[j], a[j+t]
				a[j] = AddMod(u, v, q)
				a[j+t] = MulModShoup(SubMod(u, v, q), w, wShoup, q)
			}
			j1 += 2 * t
		}
		t <<= 1
	}
	for j := 0; j < n; j++ {
		a[j] = MulModShoup(a[j], m.nInv, m.nInvShoup, q)
	}
}

// TestNTTMatchesReference: bit-identity with the fully reduced transforms
// over every supported prime width, on random inputs and on the inputs that
// drive the lazy intermediates to their bounds. The degrees cover odd and
// even stage counts; 2^15 is the ring the demo model is served on.
func TestNTTMatchesReference(t *testing.T) {
	for _, n := range []int{16, 32, 256, 1024, 2048, 8192, 1 << 15} {
		for _, bitSize := range []int{20, 30, 45, 55, 60, 61} {
			q, err := GenPrime(bitSize, n, nil)
			if err != nil {
				t.Fatalf("N=%d, %d bits: %v", n, bitSize, err)
			}
			m, err := NewModulus(q, n)
			if err != nil {
				t.Fatalf("N=%d, %d bits: %v", n, bitSize, err)
			}
			rng := rand.New(rand.NewSource(int64(n + bitSize)))
			inputs := map[string]func(int) uint64{
				"random":  func(int) uint64 { return rng.Uint64() % q },
				"zero":    func(int) uint64 { return 0 },
				"all q-1": func(int) uint64 { return q - 1 },
				"alternating": func(i int) uint64 {
					if i&1 == 0 {
						return q - 1
					}
					return 0
				},
			}
			for name, gen := range inputs {
				a := make([]uint64, n)
				for i := range a {
					a[i] = gen(i)
				}
				for _, tr := range []struct {
					name      string
					got, want func(*Modulus, []uint64)
				}{
					{"NTT", (*Modulus).NTT, refNTT},
					{"INTT", (*Modulus).INTT, refINTT},
				} {
					got := append([]uint64(nil), a...)
					want := append([]uint64(nil), a...)
					tr.got(m, got)
					tr.want(m, want)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("N=%d q=%d (%d bits) %s input: %s differs from the reference at %d: got %d want %d",
								n, q, bitSize, name, tr.name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestNTTSmallestDegree: the transforms special-case their first and last
// stages, so the degrees with few stages get their own round trip and
// reference check in both directions (lattigo 6.1 shipped an inverse NTT
// that was wrong at small degree).
func TestNTTSmallestDegree(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		q, err := GenPrime(30, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModulus(q, n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % q
		}
		fwd, ref := append([]uint64(nil), a...), append([]uint64(nil), a...)
		m.NTT(fwd)
		refNTT(m, ref)
		back := append([]uint64(nil), fwd...)
		m.INTT(back)
		inv, invRef := append([]uint64(nil), a...), append([]uint64(nil), a...)
		m.INTT(inv)
		refINTT(m, invRef)
		for i := range a {
			if fwd[i] != ref[i] {
				t.Fatalf("N=%d: NTT differs from the reference at %d", n, i)
			}
			if inv[i] != invRef[i] {
				t.Fatalf("N=%d: INTT differs from the reference at %d", n, i)
			}
			if back[i] != a[i] {
				t.Fatalf("N=%d: INTT∘NTT is not the identity at %d", n, i)
			}
		}
	}
}

// FuzzNTTMatchesReference: at any degree up to 2^15 and any prime width,
// both transforms of canonical inputs equal the radix-2 references.
func FuzzNTTMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(50))
	f.Add(int64(2), uint8(15), uint8(61))
	f.Add(int64(3), uint8(1), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, logN, width uint8) {
		n, bitSize := 1<<(1+int(logN)%15), 20+int(width)%(MaxModulusBits-19)
		q, err := GenPrime(bitSize, n, nil)
		if err != nil {
			t.Skip(err) // no prime of that width is ≡ 1 mod 2N
		}
		m, err := NewModulus(q, n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % q
		}
		for _, tr := range []struct {
			name      string
			got, want func(*Modulus, []uint64)
		}{
			{"NTT", (*Modulus).NTT, refNTT},
			{"INTT", (*Modulus).INTT, refINTT},
		} {
			got, want := append([]uint64(nil), a...), append([]uint64(nil), a...)
			tr.got(m, got)
			tr.want(m, want)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("N=%d q=%d seed=%d: %s differs from the reference at %d: got %d want %d", n, q, seed, tr.name, i, got[i], want[i])
				}
			}
		}
	})
}

// TestGenPrimesBuildModuli: every prime GenPrimes hands out must be one
// NewModulus accepts. At bitSize = MaxModulusBits the candidates above
// 2^bitSize are 62-bit values; GenPrimes used to return them.
func TestGenPrimesBuildModuli(t *testing.T) {
	for _, bitSize := range []int{20, 45, 60, 61} {
		for _, n := range []int{1024, 8192} {
			primes, err := GenPrimes(bitSize, n, 4, nil)
			if err != nil {
				t.Fatalf("GenPrimes(%d, %d): %v", bitSize, n, err)
			}
			for _, q := range primes {
				if _, err := NewModulus(q, n); err != nil {
					t.Errorf("GenPrimes(%d, %d) returned %d: %v", bitSize, n, q, err)
				}
			}
		}
	}
}

// acc128Ref is Σ a_i·b_i mod q by math/big.
func acc128Ref(a, b []uint64, q uint64) uint64 {
	sum, prod := new(big.Int), new(big.Int)
	for i := range a {
		prod.Mul(new(big.Int).SetUint64(a[i]), new(big.Int).SetUint64(b[i]))
		sum.Add(sum, prod)
	}
	return sum.Mod(sum, new(big.Int).SetUint64(q)).Uint64()
}

// acc128Sum accumulates the products through MulAcc128 and reduces once.
func acc128Sum(m *Modulus, a, b []uint64) uint64 {
	hi, lo := make([]uint64, 1), make([]uint64, 1)
	for i := range a {
		MulAcc128(hi, lo, a[i:i+1], b[i:i+1])
	}
	m.ReduceAcc128(hi, lo, lo)
	return lo[0]
}

func TestAcc128WorstCase(t *testing.T) {
	for _, bitSize := range []int{20, 45, 61} {
		q, err := GenPrime(bitSize, 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModulus(q, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, terms := range []int{0, 1, 2, MaxAcc128Terms} {
			a, b := make([]uint64, terms), make([]uint64, terms)
			for i := range a {
				a[i], b[i] = q-1, q-1
			}
			if got, want := acc128Sum(m, a, b), acc128Ref(a, b, q); got != want {
				t.Errorf("q=%d: %d terms of (q-1)²: got %d want %d", q, terms, got, want)
			}
		}
	}
}

// FuzzAcc128: up to MaxAcc128Terms products of residues, accumulated
// unreduced and reduced once, equal the big-integer sum mod q.
func FuzzAcc128(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1))
	f.Add(int64(-7), uint8(2), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, qi, terms uint8) {
		q := fuzzPrimes[int(qi)%len(fuzzPrimes)]
		m, err := NewModulus(q, 16)
		if err != nil {
			t.Fatal(err)
		}
		n := int(terms) % (MaxAcc128Terms + 1)
		rng := rand.New(rand.NewSource(seed))
		a, b := make([]uint64, n), make([]uint64, n)
		for i := range a {
			// Bias toward the top of the range, where overflow would bite.
			a[i], b[i] = q-1-rng.Uint64()%q>>uint(rng.Intn(62)), q-1-rng.Uint64()%q>>uint(rng.Intn(62))
		}
		if got, want := acc128Sum(m, a, b), acc128Ref(a, b, q); got != want {
			t.Fatalf("q=%d seed=%d terms=%d: got %d want %d", q, seed, n, got, want)
		}
	})
}
