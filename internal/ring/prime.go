package ring

import (
	"fmt"
	"math/big"
	"math/bits"
)

// GenPrimes returns count distinct primes of (approximately) the requested
// bit size that are NTT-friendly for ring degree n, i.e. q ≡ 1 (mod 2n).
// Primes are chosen alternating below and above 2^bitSize so that their
// geometric mean stays close to 2^bitSize; this keeps the CKKS scale drift
// after rescaling small; at bitSize = MaxModulusBits everything above
// 2^bitSize is too wide for NewModulus, so only the low side is drawn from.
// The avoid set excludes primes already in use.
func GenPrimes(bitSize, n, count int, avoid map[uint64]bool) ([]uint64, error) {
	if bitSize < 20 || bitSize > MaxModulusBits {
		return nil, fmt.Errorf("ring: prime bit size %d out of range [20,%d]", bitSize, MaxModulusBits)
	}
	m := uint64(2 * n)
	center := uint64(1) << uint(bitSize)
	// The low side starts at 2^bitSize + 1 (2n divides 2^bitSize), which is
	// never prime in the supported range, and walks down from there; the
	// high side walks up from the next candidate.
	lo := (center/m)*m + 1
	hi := lo + m

	primes := make([]uint64, 0, count)
	useLow := true
	for len(primes) < count {
		var cand uint64
		if useLow {
			cand = lo
			lo -= m
		} else {
			cand = hi
			hi += m
		}
		useLow = !useLow
		if cand < 3 || cand>>uint(bitSize+1) != 0 || bits.Len64(cand) > MaxModulusBits {
			continue
		}
		if avoid != nil && avoid[cand] {
			continue
		}
		if new(big.Int).SetUint64(cand).ProbablyPrime(20) {
			primes = append(primes, cand)
			if avoid != nil {
				avoid[cand] = true
			}
		}
		if lo < m && hi>>uint(bitSize+2) != 0 {
			return nil, fmt.Errorf("ring: exhausted candidates for %d-bit primes with 2N=%d", bitSize, m)
		}
	}
	return primes, nil
}

// GenPrime returns a single NTT-friendly prime (see GenPrimes).
func GenPrime(bitSize, n int, avoid map[uint64]bool) (uint64, error) {
	ps, err := GenPrimes(bitSize, n, 1, avoid)
	if err != nil {
		return 0, err
	}
	return ps[0], nil
}
