package ckks

import (
	"fmt"
	"math"

	"github.com/efficientfhe/smartpaf/internal/ring"
	"github.com/efficientfhe/smartpaf/internal/wire"
)

// Binary serialization for the objects that cross the network in a private
// inference deployment: the client ships an encrypted input and its
// evaluation keys; the server returns an encrypted result. Parameters
// serialize as their literal — prime generation is deterministic, so both
// sides derive identical chains. The codec and the magic registry live in
// internal/wire. A decoder checks only what the bytes alone can show (counts,
// shapes that agree with each other, a sane scale); whether the shapes and
// residues fit a parameter set is Validate's job (validate.go).
//
// Layouts (little-endian; poly = u32 limbs | u32 N | limbs×N u64,
// digits = u32 count | per digit: poly BQ | AQ | BP | AP):
//
//	ParametersLiteral:  magic | u32 LogN | u32 LogScale | u32 nq | nq×u32 LogQ | u32 np | np×u32 LogP
//	Ciphertext:         magic | u32 level | f64 scale | poly C0 | poly C1
//	RelinearizationKey: magic | digits
//	SwitchingKey:       magic | digits
//	RotationKeySet:     magic | u32 n | n×(u32 step | digits), ascending | u32 conj | [digits]
//
// The literal and the three key formats took new magics when the gadget went
// from one digit per chain prime to grouped digits over several special
// primes: a key's layout did not change shape, but its meaning did, and a
// payload from either side of that change must fail at the front door.
const (
	ciphertextMagic   = uint32(0x5AF7CC09)
	paramsMagic       = uint32(0x5AF7CC0E)
	rotationKeyMagic  = uint32(0x5AF7CC0F)
	relinKeyMagic     = uint32(0x5AF7CC10)
	switchingKeyMagic = uint32(0x5AF7CC11)

	maxLimbs        = 64 // chain length; bounds special primes and gadget digits too
	maxDegree       = 1 << 20
	maxRotationKeys = 1 << 16
)

// polySize and digitsSize are exact wire sizes: ciphertexts and key sets are
// the payloads big enough that growing the Writer would copy megabytes, so
// their marshalers allocate once.
func polySize(p *ring.Poly) int { return 8 + 8*len(p.Coeffs)*len(p.Coeffs[0]) }

func digitsSize(digits []EvaluationKeyDigit) int {
	n := 4
	for i := range digits {
		d := &digits[i]
		n += polySize(d.BQ) + polySize(d.AQ) + polySize(d.BP) + polySize(d.AP)
	}
	return n
}

func writePoly(w *wire.Writer, p *ring.Poly) {
	w.U32(uint32(len(p.Coeffs)))
	w.U32(uint32(len(p.Coeffs[0])))
	for _, limb := range p.Coeffs {
		w.U64s(limb)
	}
}

// readPoly returns nil once r has failed.
func readPoly(r *wire.Reader) *ring.Poly {
	limbs, n := r.Count(maxLimbs), r.Count(maxDegree)
	if limbs == 0 || n == 0 {
		r.Fail("implausible poly header (%d limbs, N=%d)", limbs, n)
	}
	p := &ring.Poly{Coeffs: make([][]uint64, limbs)}
	for i := range p.Coeffs {
		p.Coeffs[i] = r.U64s(n)
	}
	if r.Err() != nil {
		return nil
	}
	return p
}

// sameShape reports whether two decoded polys agree on limb count and ring
// degree. Decoders demand it of every pair of components the evaluator
// indexes in lockstep: a payload mixing rings must fail at the boundary, not
// corrupt (or panic) later arithmetic.
func sameShape(a, b *ring.Poly) bool {
	return len(a.Coeffs) == len(b.Coeffs) && len(a.Coeffs[0]) == len(b.Coeffs[0])
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (lit ParametersLiteral) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.U32(paramsMagic)
	w.U32(uint32(lit.LogN))
	w.U32(uint32(lit.LogScale))
	for _, logs := range [][]int{lit.LogQ, lit.LogP} {
		w.U32(uint32(len(logs)))
		for _, b := range logs {
			w.U32(uint32(b))
		}
	}
	return w, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (lit *ParametersLiteral) UnmarshalBinary(data []byte) error {
	r := wire.NewReader("ckks: parameter literal", data)
	r.Magic(paramsMagic)
	readLogs := func() []int {
		logs := make([]int, r.Count(maxLimbs))
		for i := range logs {
			logs[i] = int(r.U32())
		}
		return logs
	}
	out := ParametersLiteral{LogN: int(r.U32()), LogScale: int(r.U32())}
	out.LogQ = readLogs()
	out.LogP = readLogs()
	if len(out.LogQ) == 0 || len(out.LogP) == 0 {
		r.Fail("empty modulus chain or no special prime")
	}
	if err := r.Done(); err != nil {
		return err
	}
	*lit = out
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (ct *Ciphertext) MarshalBinary() ([]byte, error) {
	w := make(wire.Writer, 0, 16+polySize(ct.C0)+polySize(ct.C1))
	w.U32(ciphertextMagic)
	w.U32(uint32(ct.Level))
	w.F64(ct.Scale)
	writePoly(&w, ct.C0)
	writePoly(&w, ct.C1)
	return w, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (ct *Ciphertext) UnmarshalBinary(data []byte) error {
	r := wire.NewReader("ckks: ciphertext", data)
	r.Magic(ciphertextMagic)
	out := Ciphertext{Level: int(r.U32()), Scale: r.F64()}
	out.C0, out.C1 = readPoly(r), readPoly(r)
	if err := r.Done(); err != nil {
		return err
	}
	if math.IsNaN(out.Scale) || math.IsInf(out.Scale, 0) || out.Scale <= 0 {
		return fmt.Errorf("ckks: implausible ciphertext scale %g", out.Scale)
	}
	if out.C0.Level() != out.Level || !sameShape(out.C0, out.C1) {
		return fmt.Errorf("ckks: ciphertext level %d does not match its components (%d/%d limbs, N=%d/%d)",
			out.Level, len(out.C0.Coeffs), len(out.C1.Coeffs), len(out.C0.Coeffs[0]), len(out.C1.Coeffs[0]))
	}
	*ct = out
	return nil
}

// writeDigits serializes a gadget digit list (shared by relinearization and
// switching keys, which have identical wire layouts).
func writeDigits(w *wire.Writer, digits []EvaluationKeyDigit) {
	w.U32(uint32(len(digits)))
	for i := range digits {
		d := &digits[i]
		for _, p := range []*ring.Poly{d.BQ, d.AQ, d.BP, d.AP} {
			writePoly(w, p)
		}
	}
}

// readDigits deserializes a gadget digit list; it returns nil once r has
// failed. The key-switch loop indexes all four components of every digit in
// lockstep, so each Q (and each P) component must match the first digit's.
func readDigits(r *wire.Reader) []EvaluationKeyDigit {
	digits := make([]EvaluationKeyDigit, r.Count(maxLimbs))
	if len(digits) == 0 {
		r.Fail("evaluation key has no gadget digits")
	}
	for i := range digits {
		d := &digits[i]
		d.BQ, d.AQ, d.BP, d.AP = readPoly(r), readPoly(r), readPoly(r), readPoly(r)
		if r.Err() != nil {
			return nil
		}
		q, p := digits[0].BQ, digits[0].BP
		if !sameShape(d.BQ, q) || !sameShape(d.AQ, q) || !sameShape(d.BP, p) || !sameShape(d.AP, p) ||
			len(p.Coeffs[0]) != len(q.Coeffs[0]) {
			r.Fail("digit %d disagrees in shape with the rest of its key", i)
			return nil
		}
	}
	return digits
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (rlk *RelinearizationKey) MarshalBinary() ([]byte, error) {
	w := make(wire.Writer, 0, 4+digitsSize(rlk.Digits))
	w.U32(relinKeyMagic)
	writeDigits(&w, rlk.Digits)
	return w, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (rlk *RelinearizationKey) UnmarshalBinary(data []byte) error {
	r := wire.NewReader("ckks: relinearization key", data)
	r.Magic(relinKeyMagic)
	rlk.Digits = readDigits(r)
	return r.Done()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (swk *SwitchingKey) MarshalBinary() ([]byte, error) {
	w := make(wire.Writer, 0, 4+digitsSize(swk.Digits))
	w.U32(switchingKeyMagic)
	writeDigits(&w, swk.Digits)
	return w, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
// The magic applies to a standalone switching key; RotationKeySet frames
// its members itself (the set-level magic covers them) and writes digit
// lists directly.
func (swk *SwitchingKey) UnmarshalBinary(data []byte) error {
	r := wire.NewReader("ckks: switching key", data)
	r.Magic(switchingKeyMagic)
	swk.Digits = readDigits(r)
	return r.Done()
}

// MarshalBinary implements encoding.BinaryMarshaler. Steps are written in
// sorted order so equal sets serialize identically.
func (rks *RotationKeySet) MarshalBinary() ([]byte, error) {
	steps := rks.Steps()
	size := 12 // magic, key count, conjugation flag
	for _, key := range rks.keys {
		size += 4 + digitsSize(key.Digits)
	}
	if rks.conjugation != nil {
		size += digitsSize(rks.conjugation.Digits)
	}
	w := make(wire.Writer, 0, size)
	w.U32(rotationKeyMagic)
	w.U32(uint32(len(steps)))
	for _, step := range steps {
		w.U32(uint32(step))
		writeDigits(&w, rks.keys[step].Digits)
	}
	if rks.conjugation == nil {
		w.U32(0)
	} else {
		w.U32(1)
		writeDigits(&w, rks.conjugation.Digits)
	}
	return w, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Keys must agree on
// one shape across the whole set (readDigits only checks within a key): a
// set mixing ring degrees or chain lengths would panic the key-switch loop
// instead of erroring here.
func (rks *RotationKeySet) UnmarshalBinary(data []byte) error {
	r := wire.NewReader("ckks: rotation keys", data)
	r.Magic(rotationKeyMagic)
	var ref []EvaluationKeyDigit
	readKey := func() *SwitchingKey {
		digits := readDigits(r)
		if ref == nil {
			ref = digits
		}
		if r.Err() == nil && (len(digits) != len(ref) ||
			!sameShape(digits[0].BQ, ref[0].BQ) || !sameShape(digits[0].BP, ref[0].BP)) {
			r.Fail("rotation keys disagree on digit count, limb counts or ring degree")
		}
		return &SwitchingKey{Digits: digits}
	}
	keys := map[int]*SwitchingKey{}
	for n := r.Count(maxRotationKeys); n > 0 && r.Err() == nil; n-- {
		step := int(r.U32())
		if _, dup := keys[step]; dup || step == 0 || step > maxDegree {
			r.Fail("rotation step %d is zero, implausible or repeated", step)
		}
		keys[step] = readKey()
	}
	var conjugation *SwitchingKey
	switch conj := r.U32(); conj {
	case 0:
	case 1:
		conjugation = readKey()
	default:
		r.Fail("implausible conjugation flag %d", conj)
	}
	if err := r.Done(); err != nil {
		return err
	}
	rks.keys, rks.conjugation = keys, conjugation
	return nil
}
