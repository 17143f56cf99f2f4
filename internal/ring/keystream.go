package ring

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/bits"
)

// KeyStream expands a 32-byte public seed into 64-bit words: the AES-256-CTR
// keystream under that seed from a zero IV. Anyone holding the seed replays
// it exactly, which is what lets a switching key ship the seed of its uniform
// polynomials instead of the polynomials (see ckks.SwitchingKey).
type KeyStream struct {
	ctr cipher.Stream
	buf [keyStreamChunk]byte
	off int
}

// keyStreamChunk is how many bytes of keystream one refill generates.
const keyStreamChunk = 1024

// zeros is what the keystream is XORed onto: the stream itself comes out.
var zeros [keyStreamChunk]byte

// NewKeyStream starts the keystream of seed at its first word.
func NewKeyStream(seed [32]byte) *KeyStream {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic(err) // unreachable: every 32-byte key is an AES-256 key
	}
	ks := &KeyStream{ctr: cipher.NewCTR(block, make([]byte, aes.BlockSize))}
	ks.off = len(ks.buf)
	return ks
}

// Uint64 returns the next word of the stream, little-endian.
func (ks *KeyStream) Uint64() uint64 {
	ks.refill()
	v := binary.LittleEndian.Uint64(ks.buf[ks.off:])
	ks.off += 8
	return v
}

// refill generates the next chunk once every buffered word is used.
func (ks *KeyStream) refill() {
	if ks.off == len(ks.buf) {
		ks.ctr.XORKeyStream(ks.buf[:], zeros[:])
		ks.off = 0
	}
}

// fill is uniformLimb over the keystream: the same words in the same order,
// taken from the buffer a chunk at a time rather than a call a word.
func (ks *KeyStream) fill(u uniformMod, dst []uint64) {
	for j := 0; j < len(dst); {
		ks.refill()
		buf := ks.buf[ks.off:]
		n := 0
		for ; n < len(buf) && j < len(dst); n += 8 {
			if v := binary.LittleEndian.Uint64(buf[n:]); v < u.max {
				dst[j] = u.reduce(v)
				j++
			}
		}
		ks.off += n
	}
}

// Uniform fills a fresh polynomial at the given level with residues drawn
// from src under uniformLimb's rejection rule, limb by limb: a uniform
// element of R_{Q_level} by CRT when src's words are uniform. It is the one
// uniform loop: Sampler.Uniform and the expansion of a seeded key both run it.
func (r *Ring) Uniform(src interface{ Uint64() uint64 }, level int) *Poly {
	p := r.NewPoly(level)
	r.UniformTo(src, p)
	return p
}

// UniformTo is Uniform into p, at p's level: every limb is overwritten, so p
// may come from GetPolyRaw.
func (r *Ring) UniformTo(src interface{ Uint64() uint64 }, p *Poly) {
	for i, limb := range p.Coeffs {
		uniformLimb(src, r.Moduli[i].Q, limb)
	}
}

// uniformLimb fills dst with values uniform in [0, q) without modulo bias:
// a word at or above the largest multiple of q that fits is drawn again. A
// KeyStream hands over its buffered words a chunk at a time (fill); any other
// source takes one call a word.
func uniformLimb(src interface{ Uint64() uint64 }, q uint64, dst []uint64) {
	u := newUniformMod(q)
	if ks, ok := src.(*KeyStream); ok {
		ks.fill(u, dst)
		return
	}
	for j := range dst {
		v := src.Uint64()
		for v >= u.max {
			v = src.Uint64()
		}
		dst[j] = u.reduce(v)
	}
}

// uniformMod holds uniformLimb's constants for q: the rejection bound max
// and the Barrett constant m = ⌊2^64/q⌋. The quotient estimate ⌊v·m/2^64⌋
// falls short of ⌊v/q⌋ by at most one, so reduce is exact after one
// conditional subtraction, with no hardware divide.
type uniformMod struct{ q, max, m uint64 }

func newUniformMod(q uint64) uniformMod {
	m, _ := bits.Div64(1, 0, q)
	return uniformMod{q: q, max: ^uint64(0) - ^uint64(0)%q, m: m}
}

// reduce returns v mod q.
func (u uniformMod) reduce(v uint64) uint64 {
	quo, _ := bits.Mul64(v, u.m)
	r := v - quo*u.q
	if r >= u.q {
		r -= u.q
	}
	return r
}
