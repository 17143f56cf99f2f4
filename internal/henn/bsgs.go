package henn

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/ring"
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

// linearPlan is a Linear compiled for one input shape: an encoder (and so a
// parameter set), an input level and an input scale. It holds the layer's
// encoded diagonals and bias, the only plaintexts the layer keeps.
type linearPlan struct {
	enc    *ckks.Encoder
	level  int
	scale  float64
	n1     int
	babies []int           // ascending baby steps b ∈ [1, n1) that some block uses
	blocks []giantBlock    // non-empty giant blocks, ascending
	bias   *ckks.Plaintext // B at level−1 and the input's scale; nil without a bias
}

// giantBlock is one inner sum Σ_b pt ⊙ rot(x, b), rotated by step.
type giantBlock struct {
	step  int // g·n1; the first block (g = 0) is not rotated
	terms []blockTerm
}

// blockTerm is diagonal d = step + baby of its block, encoded at the plan's
// level with the level's prime as scale.
type blockTerm struct {
	baby int
	pt   *ckks.Plaintext
}

// babyStride is n1 = ⌈√slots⌉, the number of baby steps per giant step.
func babyStride(slots int) int { return int(math.Ceil(math.Sqrt(float64(slots)))) }

// diagonals calls f, ascending in d, for every diagonal d = step + baby of W
// at the slot count that holds a non-zero weight, where step = d − d mod n1.
// vec is u_d rotated by −step — slot (i+step) mod slots holds
// W[i][(i+d) mod slots] — and is reused by the next call. It is the one
// walk behind both the keys a client generates (ServingRotations) and the
// loops ApplyLinear runs (compile), so the keys advertised and the keys used
// cannot disagree. Out is clamped to the slot count: rows beyond it cannot
// appear in a slot vector (such a layer fails ApplyLinear's dimension check
// anyway; walking it must still not panic).
func (l *Linear) diagonals(slots int, f func(step, baby int, vec []float64)) {
	n1 := babyStride(slots)
	rows := min(l.Out, slots)
	vec := make([]float64, slots)
	for d := 0; d < slots; d++ {
		step := d - d%n1
		nonZero := false
		for i := 0; i < rows; i++ {
			j := (i + d) % slots
			if j < l.In && l.W[i][j] != 0 {
				vec[(i+step)%slots] = l.W[i][j]
				nonZero = true
			}
		}
		if nonZero {
			f(step, d-step, vec)
			clear(vec)
		}
	}
}

// compile encodes the layer for inputs at level and scale under ctx's
// encoder. A diagonal's scale is the level's prime, so the product lands
// back on the input's scale after the rescale; the bias is encoded at the
// rescaled level and the input's scale.
func (l *Linear) compile(ctx *Context, level int, scale float64) (*linearPlan, error) {
	slots := ctx.Params.Slots()
	p := &linearPlan{enc: ctx.Enc, level: level, scale: scale, n1: babyStride(slots)}
	constScale := float64(ctx.Params.Q()[level])
	usesBaby := make([]bool, p.n1)
	var err error
	l.diagonals(slots, func(step, baby int, vec []float64) {
		if err != nil {
			return
		}
		var pt *ckks.Plaintext
		if pt, err = ctx.Enc.EncodeReals(vec, level, constScale); err != nil {
			return
		}
		if len(p.blocks) == 0 || p.blocks[len(p.blocks)-1].step != step {
			p.blocks = append(p.blocks, giantBlock{step: step})
		}
		blk := &p.blocks[len(p.blocks)-1]
		blk.terms = append(blk.terms, blockTerm{baby: baby, pt: pt})
		usesBaby[baby] = true
	})
	if err != nil {
		return nil, err
	}
	if len(p.blocks) == 0 {
		return nil, fmt.Errorf("henn: all-zero weight matrix")
	}
	for b := 1; b < p.n1; b++ {
		if usesBaby[b] {
			p.babies = append(p.babies, b)
		}
	}
	if l.B != nil {
		if p.bias, err = ctx.Enc.EncodeReals(l.B, level-1, scale); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// ServingRotations returns the sorted rotation steps Infer uses at the
// slot count: every linear layer's baby steps and giant steps. It walks the
// weights each call and keeps nothing.
func (mlp *MLP) ServingRotations(slots int) []int {
	seen := map[int]bool{}
	for _, l := range mlp.Layers {
		if lin, ok := l.(*Linear); ok {
			lin.diagonals(slots, func(step, baby int, _ []float64) {
				seen[step], seen[baby] = true, true
			})
		}
	}
	delete(seen, 0)
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
// The result keeps the input's scale. It runs the layer's plan, compiling
// one that replaces it when ct's level or scale or ctx's encoder differ
// from the plan's, and fans the plan's rotations across the ring's workers
// (ring.ForEachWorker); the result is the same bytes at every width.
func (ctx *Context) ApplyLinear(l *Linear, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	slots := ctx.Params.Slots()
	if l.In > slots || l.Out > slots {
		return nil, fmt.Errorf("henn: layer %dx%d exceeds %d slots", l.Out, l.In, slots)
	}
	if ct.Level < 1 {
		return nil, fmt.Errorf("henn: no level left for linear layer")
	}
	tr := ctx.trace
	plan := l.plan.Load()
	if plan == nil || plan.enc != ctx.Enc || plan.level != ct.Level || plan.scale != ct.Scale {
		mark := tr.StageStart()
		var err error
		plan, err = l.compile(ctx, ct.Level, ct.Scale)
		tr.StageEnd("encode", mark)
		if err != nil {
			return nil, err
		}
		l.plan.Store(plan)
	}

	// Every baby rotation shares one hoisted digit decomposition of ct's c1,
	// so each costs only the permuted key multiply-accumulate. The giant
	// rotations act on per-block inner sums — all distinct ciphertexts — so
	// they stay on the plain path.
	//
	// Both loops fan through the ring's gate, one job per key switch: the
	// baby rotations only read the decomposition, and a giant block only
	// reads the baby rotations. A job is worth far more than a fan's
	// hand-off, where a limb is not; while the layer holds the gate, the
	// limb fans inside its jobs run serially, and when another fan holds it
	// the layer runs serially on this goroutine. Each worker sums its blocks
	// into its own accumulator, and the accumulators are added after the
	// fan: modular addition is exact in any order, so the output is the same
	// bytes at every width. A stage recorded inside a fan is charged its
	// share of the fan's wall time.
	//
	// Every intermediate is pooled and handed back: the baby rotations when
	// the layer is done, each block's inner sum once it is rotated, each
	// rotated block once it is added into its worker's sum, the workers'
	// sums once added, the rescaled sum once the bias is added.
	eval := ctx.Eval
	cost := keySwitchCost(ctx.Params, ct.Level)
	var failure atomic.Pointer[error] // the first failed job's error; later jobs skip
	fail := func(err error) { failure.CompareAndSwap(nil, &err) }
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
	width := 1
	ring.ForEachWorker(len(plan.babies), cost, func(w int) { width = w }, func(_, i int) {
		if failure.Load() != nil {
			return
		}
		b := plan.babies[i]
		mark := tr.StageStart()
		r, err := eval.RotateHoisted(dec, b)
		tr.StageEndShare("rotate_hoisted", mark, width)
		if err != nil {
			fail(fmt.Errorf("henn: baby rotation %d: %w", b, err))
			return
		}
		rot[b] = r
	})
	if err := failure.Load(); err != nil {
		return nil, *err
	}

	var sums []*ckks.PlainSum
	var accs []*ckks.Ciphertext // accs[w]: the sum of the blocks worker w ran
	ring.ForEachWorker(len(plan.blocks), cost, func(w int) {
		width = w
		sums, accs = make([]*ckks.PlainSum, w), make([]*ckks.Ciphertext, w)
		for i := range sums {
			sums[i] = eval.NewPlainSum(ct.Level)
		}
	}, func(w, i int) {
		if failure.Load() != nil {
			return
		}
		block, err := ctx.giantBlock(plan.blocks[i], rot, sums[w], width)
		if err != nil {
			fail(err)
			return
		}
		if accs[w] == nil {
			accs[w] = block
			return
		}
		err = eval.AddInPlace(accs[w], block)
		eval.Recycle(block)
		if err != nil {
			fail(err)
		}
	})
	var acc *ckks.Ciphertext
	defer func() {
		if acc != nil {
			eval.Recycle(acc)
		}
	}()
	for w, a := range accs {
		sums[w].Release()
		switch {
		case a == nil:
		case acc == nil:
			acc = a
		default:
			if err := eval.AddInPlace(acc, a); err != nil {
				fail(err)
			}
			eval.Recycle(a)
		}
	}
	if err := failure.Load(); err != nil {
		return nil, *err
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
	biased, err := eval.AddPlain(out, plan.bias)
	tr.StageEnd("add_plain", mark)
	return biased, err
}

// giantBlock computes one giant block on a fan worker: the block's inner
// sum, in the worker's own PlainSum, rotated by the block's step.
func (ctx *Context) giantBlock(blk giantBlock, rot []*ckks.Ciphertext, inner *ckks.PlainSum, width int) (*ckks.Ciphertext, error) {
	tr, eval := ctx.trace, ctx.Eval
	// One lazily reduced accumulation, one reduction per block.
	for _, t := range blk.terms {
		mark := tr.StageStart()
		err := inner.MulPlainThenAdd(rot[t.baby], t.pt)
		tr.StageEndShare("mul_plain", mark, width)
		if err != nil {
			return nil, err
		}
	}
	mark := tr.StageStart()
	block, err := inner.Sum()
	tr.StageEndShare("mul_plain", mark, width)
	if err != nil || blk.step == 0 {
		return block, err
	}
	mark = tr.StageStart()
	rotated, err := eval.Rotate(block, blk.step)
	tr.StageEndShare("rotate", mark, width)
	eval.Recycle(block)
	if err != nil {
		return nil, fmt.Errorf("henn: giant rotation %d: %w", blk.step, err)
	}
	return rotated, nil
}

// keySwitchCost is one rotation's work in the units of ring.ForEachWorker's
// cost hint at level: the key multiply-accumulate's two products per gadget
// digit on every limb of Q·P, the hint the key switch's own limb fan passes.
func keySwitchCost(p *ckks.Parameters, level int) int {
	return 2 * p.Digits(level) * (level + 1 + len(p.P())) * p.N()
}
