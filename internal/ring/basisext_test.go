package ring

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestBasisExtenderMatchesBigInt checks the conversion against arbitrary
// precision for one, three and five source primes of mixed widths: the value
// carried to each target prime is the representative of x in [−S/2, S/2),
// whatever multiple of S the unreduced reconstruction overflowed by.
func TestBasisExtenderMatchesBigInt(t *testing.T) {
	const n = 64
	avoid := map[uint64]bool{}
	var mods []*Modulus
	for _, bits := range []int{61, 45, 55, 30, 50, 45, 61, 40} {
		q, err := GenPrime(bits, n, avoid)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModulus(q, n)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	rng := rand.New(rand.NewSource(9))
	for _, k := range []int{1, 3, 5} {
		src, dst := mods[:k], mods[k:]
		be, err := NewBasisExtender(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		S := big.NewInt(1)
		for _, m := range src {
			S.Mul(S, new(big.Int).SetUint64(m.Q))
		}
		half := new(big.Int).Rsh(S, 1)
		// Random centred values, zero, and values near the edges of the
		// interval — a 2⁻⁴⁰ fraction of S inside them: closer than 2⁻⁵⁰ the
		// floating-point overflow count may pick the neighbouring
		// representative, as documented.
		xs := make([]*big.Int, n)
		for i := range xs {
			xs[i] = new(big.Int).Sub(new(big.Int).Rand(rng, S), half)
		}
		edge := new(big.Int).Sub(half, new(big.Int).Rsh(S, 40))
		xs[0], xs[1], xs[2], xs[3] = big.NewInt(0), big.NewInt(-1), edge, new(big.Int).Neg(edge)

		ys := make([][]uint64, k)
		for i, m := range src {
			ys[i] = make([]uint64, n)
			for c, x := range xs {
				ys[i][c] = new(big.Int).Mod(x, new(big.Int).SetUint64(m.Q)).Uint64()
			}
			be.Scale(i, ys[i])
		}
		v := make([]uint64, n)
		be.Overflow(ys, v)
		out := make([]uint64, n)
		for j, m := range dst {
			be.Extend(j, ys, v, out)
			for c, x := range xs {
				if want := new(big.Int).Mod(x, new(big.Int).SetUint64(m.Q)).Uint64(); out[c] != want {
					t.Fatalf("%d source primes, target %d, x=%v: got %d, want %d", k, j, x, out[c], want)
				}
			}
		}
	}
	if _, err := NewBasisExtender(nil, mods); err == nil {
		t.Error("an empty source basis was accepted")
	}
}
