package main

import (
	"fmt"
	"math"

	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/paf"
)

// This file is the first-principles half of the benchmark: an analytic count
// of the work one inference unit does, as a function of the ring degree N,
// the level ℓ each operation runs at (ℓ+1 RNS limbs) and the gadget digit
// count (one digit per limb, plus one special prime). Nothing here is a
// hardware counter: transforms and modular multiplies are counted from the
// algorithms in internal/ckks and internal/henn, and bytes moved are
// computed from operand sizes (compulsory traffic: every word an operation
// must read or write once, 8 bytes each). The residual between this model's
// time and the measured henn.unit_ms is where the next optimisation lives.

// opCount tallies limb transforms (one N-point NTT or INTT), pointwise
// modular multiplies outside the transforms, and computed bytes moved.
type opCount struct {
	ntts, mulMods, bytes float64
}

func (a *opCount) add(b opCount) {
	a.ntts += b.ntts
	a.mulMods += b.mulMods
	a.bytes += b.bytes
}

func (a opCount) plus(b opCount) opCount {
	a.add(b)
	return a
}

func (a opCount) times(k int) opCount {
	f := float64(k)
	return opCount{a.ntts * f, a.mulMods * f, a.bytes * f}
}

// opModel counts operations at one ring degree.
type opModel struct{ n int }

// ops builds a count from t transforms and m·N pointwise multiplies that
// each touch words operands. A transform reads and writes its limb and reads
// a twiddle and its Shoup companion per butterfly row: 4N words.
func (m opModel) ops(t, mulLimbs int, words float64) opCount {
	n := float64(m.n)
	return opCount{
		ntts:    float64(t),
		mulMods: float64(mulLimbs) * n,
		bytes:   8 * (4*n*float64(t) + words*float64(mulLimbs)*n),
	}
}

// modDown is Evaluator.modDownByP on one accumulator at level l: one INTT
// over P, then per Q limb an NTT of the lifted value and one multiply by
// P⁻¹ (reads the limb and the lift, writes the limb).
func (m opModel) modDown(l int) opCount { return m.ops(1+(l+1), l+1, 3) }

// keySwitchMAC is the digit multiply-accumulate against a switching key:
// l+1 digits, each against l+1 Q limbs and the special prime, two products
// per coefficient sharing one operand (7 words per pair).
func (m opModel) keySwitchMAC(l int) opCount { return m.ops(0, 2*(l+1)*(l+2), 3.5) }

// decompose is the digit decomposition: per digit one INTT, then an NTT on
// every Q limb and on the special prime.
func (m opModel) decompose(l int) opCount { return m.ops((l+1)*(1+l+2), 0, 0) }

// keySwitch is Evaluator.keySwitch: decompose, MAC, two mod-downs.
func (m opModel) keySwitch(l int) opCount {
	return m.decompose(l).plus(m.keySwitchMAC(l)).plus(m.modDown(l).times(2))
}

// rotate is Evaluator.Rotate: both components leave and re-enter the NTT
// domain around the automorphism, then c1 is key-switched.
func (m opModel) rotate(l int) opCount { return m.ops(4*(l+1), 0, 0).plus(m.keySwitch(l)) }

// rotateHoisted is Evaluator.RotateHoisted: the permutation is fused into
// the MAC, so only the MAC and the mod-downs remain.
func (m opModel) rotateHoisted(l int) opCount {
	return m.keySwitchMAC(l).plus(m.modDown(l).times(2))
}

// mulPlain is Evaluator.MulPlain on both components.
func (m opModel) mulPlain(l int) opCount { return m.ops(0, 2*(l+1), 3) }

// rescale is Evaluator.Rescale from level l: per component one INTT of the
// top limb, then per remaining limb an NTT and one multiply by q_l⁻¹.
func (m opModel) rescale(l int) opCount { return m.ops(2*(1+l), 2*l, 3) }

// mulRelinRescale is the tensor product (four limb-wise products), the
// relinearisation key switch and the rescale.
func (m opModel) mulRelinRescale(l int) opCount {
	return m.ops(0, 4*(l+1), 3).plus(m.keySwitch(l)).plus(m.rescale(l))
}

// mulConst is Evaluator.MulConstTargetScale: a scalar product and a rescale.
func (m opModel) mulConst(l int) opCount { return m.ops(0, 2*(l+1), 2).plus(m.rescale(l)) }

// linearShape is what the BSGS evaluation of one dense layer does.
type linearShape struct {
	diagonals, hoisted, plain int
}

// shapeOf derives the non-zero generalized diagonals of a layer and, from
// them, the hoisted baby rotations and plain giant rotations BSGS performs
// (or, with bsgs false, one plain rotation per non-zero diagonal).
func shapeOf(l *henn.Linear, slots int, bsgs bool) linearShape {
	n1 := int(math.Ceil(math.Sqrt(float64(slots))))
	babies, giants := map[int]bool{}, map[int]bool{}
	var s linearShape
	for d := 0; d < slots; d++ {
		nonZero := false
		for i := 0; i < min(l.Out, slots) && !nonZero; i++ {
			j := (i + d) % slots
			nonZero = j < l.In && l.W[i][j] != 0
		}
		if !nonZero {
			continue
		}
		s.diagonals++
		if !bsgs {
			if d != 0 {
				s.plain++
			}
			continue
		}
		if b := d % n1; b != 0 && !babies[b] {
			babies[b] = true
			s.hoisted++
		}
		if g := d / n1; g != 0 && !giants[g] {
			giants[g] = true
			s.plain++
		}
	}
	return s
}

// linear is one ApplyLinear/ApplyLinearBSGS at level l.
func (m opModel) linear(s linearShape, l int, bsgs bool) opCount {
	c := m.mulPlain(l).times(s.diagonals).plus(m.rotate(l).times(s.plain)).plus(m.rescale(l))
	if bsgs {
		c = c.plus(m.decompose(l)).plus(m.rotateHoisted(l).times(s.hoisted))
	}
	return c
}

// pafCount is what one activation costs and consumes.
type pafCount struct {
	opCount
	ctMults int
	outLvl  int
}

// evalOdd follows hepoly.Evaluator.EvalOdd's schedule on levels alone: the
// even-power ladder, then per non-zero coefficient a constant product and
// one ciphertext product per set bit of the term's ladder index.
func (m opModel) evalOdd(p *paf.OddPoly, l int) pafCount {
	out := pafCount{outLvl: l}
	top := (p.Degree() - 1) / 2
	var ladder []int // level of x^(2^(i+1))
	for i, cur := 0, l; 1<<i <= top; i++ {
		out.add(m.mulRelinRescale(cur))
		out.ctMults++
		cur--
		ladder = append(ladder, cur)
	}
	for k, c := range p.Coeffs {
		if c == 0 {
			continue
		}
		out.add(m.mulConst(l))
		level := l - 1
		for bit := 0; 1<<bit <= k; bit++ {
			if k&(1<<bit) == 0 {
				continue
			}
			level = min(level, ladder[bit])
			out.add(m.mulRelinRescale(level))
			out.ctMults++
			level--
		}
		out.outLvl = min(out.outLvl, level)
	}
	return out
}

// activation is henn.Context.ApplyActivation at level l: the 1/Scale input
// normalisation, the composite's stages, then x·p(x) and the x/2 term.
func (m opModel) activation(c *paf.Composite, l int) pafCount {
	out := pafCount{opCount: m.mulConst(l)}
	in := l - 1
	cur := in
	for _, stage := range c.Stages {
		s := m.evalOdd(stage, cur)
		out.add(s.opCount)
		out.ctMults += s.ctMults
		cur = s.outLvl
	}
	out.add(m.mulRelinRescale(cur).plus(m.mulConst(in)))
	out.ctMults++
	out.outLvl = cur - 1
	return out
}

// unitCount is the model's account of one henn.Unit.Run.
type unitCount struct {
	opCount
	rotations, keySwitches, ctMults int
}

// unit walks the MLP from the top level down, as Unit.Run does.
func (m opModel) unit(mlp *henn.MLP, slots, level int) (unitCount, error) {
	bsgs := mlp.PreferBSGS(slots)
	var u unitCount
	for _, layer := range mlp.Layers {
		switch v := layer.(type) {
		case *henn.Linear:
			s := shapeOf(v, slots, bsgs)
			u.add(m.linear(s, level, bsgs))
			u.rotations += s.hoisted + s.plain
			u.keySwitches += s.hoisted + s.plain
			level--
		case *henn.Activation:
			a := m.activation(v.PAF, level)
			u.add(a.opCount)
			u.ctMults += a.ctMults
			u.keySwitches += a.ctMults
			level = a.outLvl
		}
	}
	if level < 0 {
		return u, fmt.Errorf("op model: unit ends at level %d", level)
	}
	return u, nil
}
