package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/tensor"
)

// gradCheck verifies d(sum of outputs·weights)/d(input) against central
// finite differences for an arbitrary layer.
func gradCheck(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	out := l.Forward(x, true)
	w := make([]float64, out.Numel())
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	upstream := tensor.FromSlice(append([]float64(nil), w...), out.Shape...)
	gin := l.Backward(upstream)

	loss := func() float64 {
		o := l.Forward(x, true)
		var s float64
		for i, v := range o.Data {
			s += w[i] * v
		}
		return s
	}
	const h = 1e-5
	// Probe a subset of input coordinates.
	idxs := rng.Perm(x.Numel())
	if len(idxs) > 12 {
		idxs = idxs[:12]
	}
	for _, i := range idxs {
		orig := x.Data[i]
		x.Data[i] = orig + h
		up := loss()
		x.Data[i] = orig - h
		down := loss()
		x.Data[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(gin.Data[i]-num) > tol*(1+math.Abs(num)) {
			t.Fatalf("%s: input grad[%d] = %g, numerical %g", l.Name(), i, gin.Data[i], num)
		}
	}
	// Probe parameter gradients.
	for _, p := range l.Params() {
		// Re-run forward+backward to populate grads cleanly.
		clear(p.Grad)
	}
	l.Forward(x, true)
	l.Backward(upstream)
	for _, p := range l.Params() {
		pidxs := rng.Perm(len(p.Data))
		if len(pidxs) > 6 {
			pidxs = pidxs[:6]
		}
		for _, i := range pidxs {
			orig := p.Data[i]
			p.Data[i] = orig + h
			up := loss()
			p.Data[i] = orig - h
			down := loss()
			p.Data[i] = orig
			num := (up - down) / (2 * h)
			if math.Abs(p.Grad[i]-num) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s param %s grad[%d] = %g, numerical %g", l.Name(), p.Name, i, p.Grad[i], num)
			}
		}
	}
}

func randInput(shape ...int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(shape...)
	x.FillRandN(rng, 1)
	return x
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gradCheck(t, NewLinear("fc", 6, 4, rng), randInput(3, 6), 1e-4)
}

func TestConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gradCheck(t, NewConv2D("conv", 2, 3, 3, 1, 1, rng), randInput(2, 2, 5, 5), 1e-4)
}

func TestConvStrideGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gradCheck(t, NewConv2D("conv", 2, 2, 3, 2, 1, rng), randInput(1, 2, 7, 7), 1e-4)
}

func TestBatchNormGradients(t *testing.T) {
	gradCheck(t, NewBatchNorm2D("bn", 3), randInput(4, 3, 4, 4), 1e-3)
}

func TestReLUGradients(t *testing.T) {
	gradCheck(t, NewReLU(), randInput(2, 3, 4, 4), 1e-4)
}

func TestMaxPoolGradients(t *testing.T) {
	gradCheck(t, NewMaxPool2D(2, 2, 0), randInput(2, 2, 6, 6), 1e-4)
}

func TestAvgPoolGradients(t *testing.T) {
	gradCheck(t, NewAvgPool2DGlobal(), randInput(2, 3, 4, 4), 1e-4)
}

func TestPAFActGradients(t *testing.T) {
	c := paf.MustNew(paf.FormF1G2)
	a := NewPAFAct("pafact", c)
	a.Mode = ScaleStatic
	a.Scale = 2.0
	gradCheck(t, a, randInput(2, 2, 3, 3), 1e-3)
}

func TestPAFMaxPoolInputGradients(t *testing.T) {
	c := paf.MustNew(paf.FormF1G2)
	p := NewPAFMaxPool("pafpool", c, 2, 2, 0)
	p.Mode = ScaleStatic
	p.Scale = 2.5
	// Only input gradients are exact for the pool (coefficient grads are
	// first-order approximations through the tree; checked separately).
	x := randInput(1, 2, 4, 4)
	out := p.Forward(x, true)
	rng := rand.New(rand.NewSource(9))
	w := make([]float64, out.Numel())
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	up := tensor.FromSlice(append([]float64(nil), w...), out.Shape...)
	gin := p.Backward(up)
	loss := func() float64 {
		o := p.Forward(x, true)
		var s float64
		for i, v := range o.Data {
			s += w[i] * v
		}
		return s
	}
	const h = 1e-5
	for _, i := range []int{0, 5, 11, 17, 23, 31} {
		orig := x.Data[i]
		x.Data[i] = orig + h
		upv := loss()
		x.Data[i] = orig - h
		down := loss()
		x.Data[i] = orig
		num := (upv - down) / (2 * h)
		if math.Abs(gin.Data[i]-num) > 1e-3*(1+math.Abs(num)) {
			t.Fatalf("pafpool input grad[%d] = %g num %g", i, gin.Data[i], num)
		}
	}
}

func TestPAFMaxPoolApproximatesMaxPool(t *testing.T) {
	exact := NewMaxPool2D(2, 2, 0)
	c := paf.MustNew(paf.FormAlpha10)
	approx := NewPAFMaxPool("pafpool", c, 2, 2, 0)
	x := randInput(2, 3, 8, 8)
	// Bound inputs into a range the PAF handles after scaling.
	got := approx.Forward(x, false)
	want := exact.Forward(x, false)
	var worst float64
	for i := range got.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > worst {
			worst = d
		}
	}
	if worst > 0.25*x.MaxAbs() {
		t.Fatalf("PAF maxpool deviates %g from exact (max input %g)", worst, x.MaxAbs())
	}
}

func TestPAFActDynamicVsStatic(t *testing.T) {
	c := paf.MustNew(paf.FormAlpha7)
	a := NewPAFAct("act", c)
	x := randInput(1, 1, 4, 4)
	// Dynamic: scale = batch max; running max recorded in training mode.
	a.Forward(x, true)
	if a.RunningMax != x.MaxAbs() {
		t.Fatalf("running max %g want %g", a.RunningMax, x.MaxAbs())
	}
	// Deploy freezes to static.
	if err := a.Deploy(); err != nil {
		t.Fatal(err)
	}
	if a.Mode != ScaleStatic || a.Scale != a.RunningMax {
		t.Fatal("deploy did not freeze the scale")
	}
	// Undeployed layer with no data refuses to deploy.
	b := NewPAFAct("b", c.Clone())
	if err := b.Deploy(); err == nil {
		t.Fatal("expected deploy error without running max")
	}
}

func TestDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDropout(0.5, rng)
	x := randInput(1, 1, 8, 8)
	// Disabled: identity.
	out := d.Forward(x, true)
	for i := range out.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatal("disabled dropout should be identity")
		}
	}
	d.Enabled = true
	out = d.Forward(x, true)
	zeros := 0
	for i := range out.Data {
		if out.Data[i] == 0 && x.Data[i] != 0 {
			zeros++
		}
	}
	if zeros == 0 || zeros == len(out.Data) {
		t.Fatalf("suspicious dropout pattern: %d/%d zeroed", zeros, len(out.Data))
	}
	// Eval mode: identity even when enabled.
	out = d.Forward(x, false)
	for i := range out.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatal("eval dropout should be identity")
		}
	}
}

func TestModelCensus(t *testing.T) {
	// The paper's operator census: VGG-19 has 18 ReLU + 5 MaxPool;
	// ResNet-18 has 17 ReLU + 1 MaxPool.
	vgg := VGG19(2, 10, 3, 32, 32, 1)
	relus, pools := 0, 0
	for _, s := range vgg.Slots() {
		if s.Kind == SlotReLU {
			relus++
		} else {
			pools++
		}
	}
	if relus != 18 || pools != 5 {
		t.Fatalf("VGG-19 census %d ReLU + %d MaxPool, want 18 + 5", relus, pools)
	}
	res := ResNet18(2, 10, 3, 32, 32, 1)
	relus, pools = 0, 0
	for _, s := range res.Slots() {
		if s.Kind == SlotReLU {
			relus++
		} else {
			pools++
		}
	}
	if relus != 17 || pools != 1 {
		t.Fatalf("ResNet-18 census %d ReLU + %d MaxPool, want 17 + 1", relus, pools)
	}
}

func TestModelForwardShapes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model *Model
	}{
		{"vgg19", VGG19(1, 10, 3, 32, 32, 1)},
		{"resnet18", ResNet18(1, 10, 3, 32, 32, 1)},
		{"cnn7", CNN7(2, 10, 3, 16, 16, 1)},
		{"mlp", MLP([]int{12, 8, 10}, 1)},
	} {
		var x *tensor.Tensor
		switch tc.name {
		case "cnn7":
			x = randInput(2, 3, 16, 16)
		case "mlp":
			x = randInput(2, 12, 1, 1)
		default:
			x = randInput(2, 3, 32, 32)
		}
		out := tc.model.Forward(x, false)
		if out.Shape[0] != 2 || out.Shape[1] != 10 {
			t.Fatalf("%s: output shape %v", tc.name, out.Shape)
		}
	}
}

func TestSlotReplacement(t *testing.T) {
	m := CNN7(1, 4, 1, 8, 8, 1)
	slots := m.Slots()
	if slots[0].PAFLayer() != nil {
		t.Fatal("fresh slot should not be replaced")
	}
	before := len(m.Params())
	slots[0].ReplaceWithPAF(paf.MustNew(paf.FormF1G2))
	if slots[0].PAFLayer() == nil {
		t.Fatal("slot should be replaced")
	}
	if len(m.Params()) <= before {
		t.Fatal("replacement should add PAF parameters")
	}
	// Forward still works.
	out := m.Forward(randInput(2, 1, 8, 8), false)
	if out.Shape[1] != 4 {
		t.Fatalf("bad output shape %v", out.Shape)
	}
	slots[0].RestoreExact()
	if slots[0].PAFLayer() != nil {
		t.Fatal("restore failed")
	}
	// MaxPool slot replacement keeps geometry.
	var poolSlot *Slot
	for _, s := range slots {
		if s.Kind == SlotMaxPool {
			poolSlot = s
			break
		}
	}
	poolSlot.ReplaceWithPAF(paf.MustNew(paf.FormF1G2))
	pl := poolSlot.holder.Impl.(*PAFMaxPool)
	if pl.Kernel != 2 || pl.Stride != 2 {
		t.Fatalf("replacement lost geometry: k=%d s=%d", pl.Kernel, pl.Stride)
	}
}

func TestSnapshotRestore(t *testing.T) {
	m := MLP([]int{6, 5, 3}, 2)
	snap := m.Snapshot()
	params := m.Params()
	params[0].Data[0] += 42
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if params[0].Data[0] == snap[0][0]+42 {
		t.Fatal("restore did not overwrite")
	}
	// Structure change invalidates snapshots.
	m.Slots()[0].ReplaceWithPAF(paf.MustNew(paf.FormF1G2))
	if err := m.Restore(snap); err == nil {
		t.Fatal("expected restore error after structure change")
	}
}

func TestGroupFreezing(t *testing.T) {
	m := MLP([]int{4, 4, 2}, 3)
	m.Slots()[0].ReplaceWithPAF(paf.MustNew(paf.FormF1G2))
	m.SetGroupFrozen(GroupLinear, true)
	for _, p := range m.Params() {
		if p.Group == GroupLinear && !p.Frozen {
			t.Fatal("linear params should be frozen")
		}
		if p.Group == GroupPAF && p.Frozen {
			t.Fatal("paf params should not be frozen")
		}
	}
	// Frozen params must not move under Adam.
	opt := NewAdam(0.1, 0)
	params := m.Params()
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = 1
		}
	}
	var frozenBefore []float64
	for _, p := range params {
		if p.Group == GroupLinear {
			frozenBefore = append([]float64(nil), p.Data...)
			break
		}
	}
	opt.Step(params)
	for _, p := range params {
		if p.Group == GroupLinear {
			for i := range frozenBefore {
				if p.Data[i] != frozenBefore[i] {
					t.Fatal("frozen parameter moved")
				}
			}
			break
		}
	}
}

func TestAdamReducesLoss(t *testing.T) {
	// A tiny regression-like task: Adam should reduce cross-entropy.
	m := MLP([]int{8, 16, 3}, 5)
	rng := rand.New(rand.NewSource(6))
	x := tensor.New(12, 8, 1, 1)
	x.FillRandN(rng, 1)
	y := make([]int, 12)
	for i := range y {
		y[i] = i % 3
	}
	opt := NewAdam(0.01, 0)
	first := TrainStep(m, Batch{X: x, Y: y}, nil, opt)
	var last float64
	for i := 0; i < 60; i++ {
		last = TrainStep(m, Batch{X: x, Y: y}, nil, opt)
	}
	if last >= first*0.7 {
		t.Fatalf("Adam did not reduce loss: first %g last %g", first, last)
	}
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	logits := randInput(3, 4).Reshape(3, 4)
	labels := []int{1, 3, 0}
	loss, grad := SoftmaxCrossEntropy(logits, labels)
	if loss <= 0 {
		t.Fatalf("loss %g", loss)
	}
	const h = 1e-6
	for _, i := range []int{0, 3, 5, 11} {
		orig := logits.Data[i]
		logits.Data[i] = orig + h
		up, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - h
		down, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(grad.Data[i]-num) > 1e-5 {
			t.Fatalf("CE grad[%d] = %g num %g", i, grad.Data[i], num)
		}
	}
}

func TestSWA(t *testing.T) {
	m := MLP([]int{3, 2}, 7)
	swa := NewSWA()
	p := m.Params()[0]
	orig := append([]float64(nil), p.Data...)
	swa.Accumulate(m)
	for i := range p.Data {
		p.Data[i] += 2
	}
	swa.Accumulate(m)
	avg := swa.Average()
	// Find which averaged tensor corresponds to p (first param after Flatten).
	for i := range avg[0] {
		want := orig[i] + 1
		if math.Abs(avg[0][i]-want) > 1e-12 {
			t.Fatalf("avg[%d] = %g want %g", i, avg[0][i], want)
		}
	}
	if NewSWA().Average() != nil {
		t.Fatal("an empty accumulator has no average")
	}
}

func TestBasicBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewModel("tmp")
	b := NewBasicBlock(m, "blk", 2, 3, 2, rng)
	gradCheck(t, b, randInput(2, 2, 6, 6), 5e-3)
}

func TestDeployAndFHECompatibility(t *testing.T) {
	m := CNN7(1, 4, 1, 8, 8, 1)
	// Not all slots replaced → incompatible.
	if err := m.CheckFHECompatible(); err == nil {
		t.Fatal("expected incompatibility with exact operators")
	}
	for _, s := range m.Slots() {
		s.ReplaceWithPAF(paf.MustNew(paf.FormF1G2))
	}
	// Dynamic scaling → still incompatible.
	if err := m.CheckFHECompatible(); err == nil {
		t.Fatal("expected incompatibility with dynamic scaling")
	}
	// Train one batch so running maxes exist, then deploy.
	x := randInput(2, 1, 8, 8)
	m.Forward(x, true)
	if err := m.Deploy(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckFHECompatible(); err != nil {
		t.Fatalf("deployed model should be FHE compatible: %v", err)
	}
}

func TestAccuracyHelper(t *testing.T) {
	m := MLP([]int{4, 4, 2}, 9)
	x := randInput(6, 4, 1, 1)
	y := []int{0, 1, 0, 1, 0, 1}
	acc := Accuracy(m, []Batch{{X: x, Y: y}})
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %g out of range", acc)
	}
	if Accuracy(m, nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

// TestWholeModelGradientCheck differentiates a complete model (linear +
// PAF activation layers) against finite differences through the
// cross-entropy loss — the integration test behind every fine-tuning run.
func TestWholeModelGradientCheck(t *testing.T) {
	m := MLP([]int{5, 4, 3}, 11)
	for _, s := range m.Slots() {
		s.ReplaceWithPAF(paf.MustNew(paf.FormF1G2))
		a := s.PAFLayer()
		a.Mode = ScaleStatic
		a.Scale = 2
	}
	rng := rand.New(rand.NewSource(12))
	x := tensor.New(4, 5, 1, 1)
	x.FillRandN(rng, 1)
	y := []int{0, 1, 2, 0}

	loss := func() float64 {
		l, _ := SoftmaxCrossEntropy(m.Forward(x, true), y)
		return l
	}
	m.ZeroGrad()
	logits := m.Forward(x, true)
	_, grad := SoftmaxCrossEntropy(logits, y)
	m.Backward(grad)

	const h = 1e-6
	for _, p := range m.Params() {
		idxs := rng.Perm(len(p.Data))
		if len(idxs) > 4 {
			idxs = idxs[:4]
		}
		for _, i := range idxs {
			orig := p.Data[i]
			p.Data[i] = orig + h
			up := loss()
			p.Data[i] = orig - h
			down := loss()
			p.Data[i] = orig
			num := (up - down) / (2 * h)
			if math.Abs(p.Grad[i]-num) > 1e-3*(1+math.Abs(num)) {
				t.Fatalf("param %s grad[%d] = %g, numerical %g", p.Name, i, p.Grad[i], num)
			}
		}
	}
}
