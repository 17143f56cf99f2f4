package henn

import (
	"fmt"
	"math"
	"sort"

	"github.com/efficientfhe/smartpaf/internal/ckks"
)

// The Halevi–Shoup baby-step/giant-step (BSGS) evaluation of the diagonal
// method: writing each diagonal index d = g·n1 + b,
//
//	Wx = Σ_g rot( Σ_b rot^{-g·n1}(u_{g·n1+b}) ⊙ rot(x, b), g·n1 )
//
// needs only the baby rotations b ∈ [1, n1) and giant rotations g·n1 —
// O(√slots) keys and key switches instead of one per non-zero diagonal.
// Plaintext diagonals are rotated for free.

// bsgsSplit returns the baby-step size for the slot count.
func bsgsSplit(slots int) int {
	n1 := int(math.Ceil(math.Sqrt(float64(slots))))
	if n1 < 1 {
		n1 = 1
	}
	return n1
}

// RequiredRotationsBSGS lists the rotation steps ApplyLinearBSGS needs for
// every linear layer of the MLP: baby steps and the giant steps actually
// used by non-zero diagonal blocks.
func (mlp *MLP) RequiredRotationsBSGS(slots int) []int {
	n1 := bsgsSplit(slots)
	seen := map[int]bool{}
	for _, l := range mlp.Layers {
		lin, ok := l.(*Linear)
		if !ok {
			continue
		}
		babies, giants := lin.bsgsBlocks(slots, n1)
		for b := range babies {
			if b != 0 {
				seen[b] = true
			}
		}
		for g := range giants {
			if g != 0 {
				seen[g*n1] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// PreferBSGS reports whether the BSGS method needs fewer rotation keys than
// the naive diagonal method for this model at the given slot count. The
// serving stack keys its path choice off this one predicate: the registry
// advertises the matching rotation set, clients generate keys for it, and
// Unit.Run / InferBatch evaluate with the same method — they must agree, or
// inference fails on a missing key.
func (mlp *MLP) PreferBSGS(slots int) bool {
	return len(mlp.RequiredRotationsBSGS(slots)) < len(mlp.RequiredRotations(slots))
}

// ServingRotations returns the rotation-step set of the evaluation path the
// serving stack takes for this model (see PreferBSGS).
func (mlp *MLP) ServingRotations(slots int) []int {
	if mlp.PreferBSGS(slots) {
		return mlp.RequiredRotationsBSGS(slots)
	}
	return mlp.RequiredRotations(slots)
}

// bsgsBlocks returns the baby indices and giant block indices with any
// non-zero diagonal.
func (l *Linear) bsgsBlocks(slots, n1 int) (babies, giants map[int]bool) {
	babies = map[int]bool{}
	giants = map[int]bool{}
	for _, d := range l.diagonals(slots) {
		babies[d%n1] = true
		giants[d/n1] = true
	}
	return babies, giants
}

// ApplyLinearBSGS computes Wx + b with the BSGS diagonal method; output and
// level accounting are identical to ApplyLinear (one level consumed).
func (ctx *Context) ApplyLinearBSGS(l *Linear, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	slots := ctx.Params.Slots()
	if l.In > slots || l.Out > slots {
		return nil, fmt.Errorf("henn: layer %dx%d exceeds %d slots", l.Out, l.In, slots)
	}
	if ct.Level < 1 {
		return nil, fmt.Errorf("henn: no level left for linear layer")
	}
	n1 := bsgsSplit(slots)
	targetScale := ct.Scale
	constScale := float64(ctx.Params.Q()[ct.Level]) // lands back on targetScale after rescale

	plan := l.diagonalPlan(slots)
	if len(plan.diags) == 0 {
		return nil, fmt.Errorf("henn: all-zero weight matrix")
	}

	// Baby rotations, computed lazily against one hoisted decomposition of
	// the input: every baby step shares the digit decomposition of ct's c1,
	// so each rotation after the first costs only the permuted key
	// multiply-accumulate. The giant rotations act on per-block inner sums —
	// all distinct ciphertexts — so they stay on the plain path.
	//
	// Every intermediate is pooled and handed back: the baby rotations when
	// the layer is done, each block's inner sum once it is rotated, each
	// rotated block once it is added into the running sum.
	eval := ctx.Eval
	tr := ctx.trace
	mark := tr.StageStart()
	dec := eval.DecomposeHoisted(ct)
	tr.StageEnd("decompose_hoisted", mark)
	defer dec.Release()
	babyCache := map[int]*ckks.Ciphertext{}
	defer func() {
		for _, r := range babyCache {
			eval.Recycle(r)
		}
	}()
	baby := func(b int) (*ckks.Ciphertext, error) {
		if b == 0 {
			return ct, nil
		}
		if r, ok := babyCache[b]; ok {
			return r, nil
		}
		mark := tr.StageStart()
		r, err := eval.RotateHoisted(dec, b)
		tr.StageEnd("rotate_hoisted", mark)
		if err != nil {
			return nil, err
		}
		babyCache[b] = r
		return r, nil
	}

	inner := eval.NewPlainSum(ct.Level)
	defer inner.Release()
	var acc *ckks.Ciphertext
	defer func() {
		if acc != nil {
			eval.Recycle(acc)
		}
	}()
	for g := 0; g*n1 < slots; g++ {
		// Inner sum over baby steps for this giant block: one lazily reduced
		// accumulation, one reduction per block.
		terms := 0
		for b := 0; b < n1; b++ {
			d := g*n1 + b
			diag := plan.vec[d]
			if diag == nil {
				continue
			}
			rb, err := baby(b)
			if err != nil {
				return nil, fmt.Errorf("henn: baby rotation %d: %w", b, err)
			}
			mark := tr.StageStart()
			pt, err := l.encodedPlaintext(
				ptKey{enc: ctx.Enc, d: d, bsgs: true, level: rb.Level, scale: constScale},
				func() []float64 {
					// Plaintext rotation by -g·n1 (free).
					rotated := make([]float64, slots)
					shift := g * n1
					for i := range diag {
						rotated[(i+shift)%slots] = diag[i]
					}
					return rotated
				})
			tr.StageEnd("encode", mark)
			if err != nil {
				return nil, err
			}
			mark = tr.StageStart()
			err = inner.MulPlainThenAdd(rb, pt)
			tr.StageEnd("mul_plain", mark)
			if err != nil {
				return nil, err
			}
			terms++
		}
		if terms == 0 {
			continue
		}
		mark := tr.StageStart()
		block, err := inner.Sum()
		tr.StageEnd("mul_plain", mark)
		if err != nil {
			return nil, err
		}
		if g > 0 {
			mark = tr.StageStart()
			rotated, err := eval.Rotate(block, g*n1)
			tr.StageEnd("rotate", mark)
			eval.Recycle(block)
			if err != nil {
				return nil, fmt.Errorf("henn: giant rotation %d: %w", g*n1, err)
			}
			block = rotated
		}
		if acc == nil {
			acc = block
			continue
		}
		err = eval.AddInPlace(acc, block)
		eval.Recycle(block)
		if err != nil {
			return nil, err
		}
	}

	mark = tr.StageStart()
	out, err := eval.Rescale(acc)
	tr.StageEnd("rescale", mark)
	if err != nil {
		return nil, err
	}
	out.Scale = targetScale
	if out, err = l.addBias(ctx, out); err != nil {
		return nil, err
	}
	return out, nil
}

// InferBSGS runs the MLP using BSGS linear layers.
func (ctx *Context) InferBSGS(mlp *MLP, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	var err error
	for i, l := range mlp.Layers {
		switch v := l.(type) {
		case *Linear:
			ct, err = ctx.ApplyLinearBSGS(v, ct)
		case *Activation:
			ct, err = ctx.ApplyActivation(v, ct)
		default:
			err = fmt.Errorf("henn: unknown layer type %T", l)
		}
		if err != nil {
			return nil, fmt.Errorf("henn: layer %d: %w", i, err)
		}
	}
	return ct, nil
}
