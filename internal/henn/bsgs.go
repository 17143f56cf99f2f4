package henn

import (
	"fmt"
	"math"
	"sort"

	"github.com/efficientfhe/smartpaf/internal/ckks"
)

// Linear layers are evaluated with the Halevi–Shoup baby-step/giant-step
// (BSGS) form of the diagonal method: writing each diagonal index
// d = g·n1 + b,
//
//	Wx = Σ_g rot( Σ_b rot^{-g·n1}(u_{g·n1+b}) ⊙ rot(x, b), g·n1 )
//
// needs only the baby rotations b ∈ [1, n1) and the giant rotations g·n1 of
// non-empty blocks — O(√slots) keys and key switches instead of one per
// non-zero diagonal. Plaintext diagonals are rotated for free.

// linearPlan is a Linear compiled for one slot count. It is the one source
// of both the rotation steps a client generates keys for (rotations) and
// the loops ApplyLinear runs, so the keys advertised and the keys used
// cannot disagree.
type linearPlan struct {
	slots, n1 int
	babies    []int        // ascending baby steps b ∈ [1, n1) that some block uses
	blocks    []giantBlock // non-empty giant blocks, ascending
	bias      []float64    // B padded to the slot count; nil without a bias
}

// giantBlock is one inner sum Σ_b vec ⊙ rot(x, b), rotated by step.
type giantBlock struct {
	step  int // g·n1; the first block (g = 0) is not rotated
	terms []blockTerm
}

// blockTerm is diagonal d = step + baby of its block.
type blockTerm struct {
	baby int
	vec  []float64 // u_d rotated by −step: slot (i+step) mod slots holds W[i][(i+d) mod slots]
}

// compile builds the plan for the slot count. Out is clamped to the slot
// count: rows beyond it cannot appear in a slot vector (such a layer fails
// ApplyLinear's dimension check anyway; compiling it must still not panic).
func (l *Linear) compile(slots int) *linearPlan {
	n1 := int(math.Ceil(math.Sqrt(float64(slots))))
	p := &linearPlan{slots: slots, n1: n1}
	rows := min(l.Out, slots)
	usesBaby := make([]bool, n1)
	for d := 0; d < slots; d++ {
		step := d - d%n1
		var vec []float64
		for i := 0; i < rows; i++ {
			j := (i + d) % slots
			if j < l.In && l.W[i][j] != 0 {
				if vec == nil {
					vec = make([]float64, slots)
				}
				vec[(i+step)%slots] = l.W[i][j]
			}
		}
		if vec == nil {
			continue
		}
		if len(p.blocks) == 0 || p.blocks[len(p.blocks)-1].step != step {
			p.blocks = append(p.blocks, giantBlock{step: step})
		}
		blk := &p.blocks[len(p.blocks)-1]
		blk.terms = append(blk.terms, blockTerm{baby: d - step, vec: vec})
		usesBaby[d-step] = true
	}
	for b := 1; b < n1; b++ {
		if usesBaby[b] {
			p.babies = append(p.babies, b)
		}
	}
	if l.B != nil {
		p.bias = make([]float64, slots)
		copy(p.bias, l.B)
	}
	return p
}

// rotations lists the plan's rotation steps, ascending: the baby steps,
// then the giant steps (every one ≥ n1).
func (p *linearPlan) rotations() []int {
	steps := append([]int(nil), p.babies...)
	for _, blk := range p.blocks {
		if blk.step != 0 {
			steps = append(steps, blk.step)
		}
	}
	return steps
}

// ServingRotations returns the sorted rotation steps Infer uses at the
// slot count: the union of every linear layer's plan. It compiles (and
// caches) those plans, so a registry that calls it at deploy time takes the
// O(slots·Out) derivation off the first inference.
func (mlp *MLP) ServingRotations(slots int) []int {
	seen := map[int]bool{}
	for _, l := range mlp.Layers {
		if lin, ok := l.(*Linear); ok {
			for _, s := range lin.planFor(slots).rotations() {
				seen[s] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// PreferBSGS is a shim for bench/layers.go and bench/opmodel.go, which ask
// which evaluator a model takes; there is one. ROADMAP item 1 deletes it.
func (mlp *MLP) PreferBSGS(int) bool { return true }

// ApplyLinearBSGS is a shim for bench/layers.go; ROADMAP item 1 deletes it.
func (ctx *Context) ApplyLinearBSGS(l *Linear, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	return ctx.ApplyLinear(l, ct)
}

// ApplyLinear computes Wx + b on the encrypted vector, consuming one level.
// The result keeps the input's scale.
func (ctx *Context) ApplyLinear(l *Linear, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	slots := ctx.Params.Slots()
	if l.In > slots || l.Out > slots {
		return nil, fmt.Errorf("henn: layer %dx%d exceeds %d slots", l.Out, l.In, slots)
	}
	if ct.Level < 1 {
		return nil, fmt.Errorf("henn: no level left for linear layer")
	}
	plan := l.planFor(slots)
	if len(plan.blocks) == 0 {
		return nil, fmt.Errorf("henn: all-zero weight matrix")
	}
	constScale := float64(ctx.Params.Q()[ct.Level]) // lands back on ct.Scale after rescale

	// Every baby rotation shares one hoisted digit decomposition of ct's c1,
	// so each costs only the permuted key multiply-accumulate. The giant
	// rotations act on per-block inner sums — all distinct ciphertexts — so
	// they stay on the plain path.
	//
	// Every intermediate is pooled and handed back: the baby rotations when
	// the layer is done, each block's inner sum once it is rotated, each
	// rotated block once it is added into the running sum, the rescaled sum
	// once the bias is added.
	eval := ctx.Eval
	tr := ctx.trace
	mark := tr.StageStart()
	dec := eval.DecomposeHoisted(ct)
	tr.StageEnd("decompose_hoisted", mark)
	defer dec.Release()
	rot := make([]*ckks.Ciphertext, plan.n1) // rot[b] = rot(x, b)
	rot[0] = ct
	defer func() {
		for _, r := range rot[1:] {
			if r != nil {
				eval.Recycle(r)
			}
		}
	}()
	for _, b := range plan.babies {
		mark := tr.StageStart()
		r, err := eval.RotateHoisted(dec, b)
		tr.StageEnd("rotate_hoisted", mark)
		if err != nil {
			return nil, fmt.Errorf("henn: baby rotation %d: %w", b, err)
		}
		rot[b] = r
	}

	inner := eval.NewPlainSum(ct.Level)
	defer inner.Release()
	var acc *ckks.Ciphertext
	defer func() {
		if acc != nil {
			eval.Recycle(acc)
		}
	}()
	for _, blk := range plan.blocks {
		// One lazily reduced accumulation, one reduction per block.
		for _, t := range blk.terms {
			mark := tr.StageStart()
			pt, err := l.encodedPlaintext(ctx.Enc, blk.step+t.baby, ct.Level, constScale, t.vec)
			tr.StageEnd("encode", mark)
			if err != nil {
				return nil, err
			}
			mark = tr.StageStart()
			err = inner.MulPlainThenAdd(rot[t.baby], pt)
			tr.StageEnd("mul_plain", mark)
			if err != nil {
				return nil, err
			}
		}
		mark := tr.StageStart()
		block, err := inner.Sum()
		tr.StageEnd("mul_plain", mark)
		if err != nil {
			return nil, err
		}
		if blk.step != 0 {
			mark = tr.StageStart()
			rotated, err := eval.Rotate(block, blk.step)
			tr.StageEnd("rotate", mark)
			eval.Recycle(block)
			if err != nil {
				return nil, fmt.Errorf("henn: giant rotation %d: %w", blk.step, err)
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
	out.Scale = ct.Scale
	if plan.bias == nil {
		return out, nil
	}
	defer eval.Recycle(out)
	mark = tr.StageStart()
	pt, err := l.encodedPlaintext(ctx.Enc, biasIndex, out.Level, out.Scale, plan.bias)
	tr.StageEnd("encode", mark)
	if err != nil {
		return nil, err
	}
	mark = tr.StageStart()
	biased, err := eval.AddPlain(out, pt)
	tr.StageEnd("add_plain", mark)
	return biased, err
}
