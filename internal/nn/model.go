package nn

import (
	"fmt"

	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/tensor"
)

// SlotKind distinguishes the two non-polynomial operator types.
type SlotKind int

const (
	// SlotReLU marks a ReLU activation slot.
	SlotReLU SlotKind = iota
	// SlotMaxPool marks a max-pooling slot.
	SlotMaxPool
)

// String implements fmt.Stringer.
func (k SlotKind) String() string {
	if k == SlotReLU {
		return "relu"
	}
	return "maxpool"
}

// Act is a swappable activation holder: it starts as an exact operator and
// can be replaced in place by a PAF layer. Models register every Act/pool
// holder as a Slot in inference order — the list Progressive Approximation
// walks.
type Act struct {
	Impl Layer
}

// Name implements Layer.
func (a *Act) Name() string { return a.Impl.Name() }

// Forward implements Layer.
func (a *Act) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return a.Impl.Forward(x, train)
}

// Backward implements Layer.
func (a *Act) Backward(grad *tensor.Tensor) *tensor.Tensor { return a.Impl.Backward(grad) }

// Params implements Layer.
func (a *Act) Params() []*Param { return a.Impl.Params() }

// Slot is one replaceable non-polynomial operator.
type Slot struct {
	Index int
	Kind  SlotKind
	Label string

	holder *Act
	// pooling geometry, kept for building the PAF replacement
	kernel, stride, pad int
}

// ReplaceWithPAF swaps the exact operator for a PAF-based one built around
// the given composite (which the new layer owns and trains in place).
func (s *Slot) ReplaceWithPAF(c *paf.Composite) {
	switch s.Kind {
	case SlotReLU:
		s.holder.Impl = NewPAFAct(s.Label, c)
	case SlotMaxPool:
		s.holder.Impl = NewPAFMaxPool(s.Label, c, s.kernel, s.stride, s.pad)
	}
}

// RestoreExact puts the exact operator back (used by ablations).
func (s *Slot) RestoreExact() {
	switch s.Kind {
	case SlotReLU:
		s.holder.Impl = NewReLU()
	case SlotMaxPool:
		s.holder.Impl = NewMaxPool2D(s.kernel, s.stride, s.pad)
	}
}

// PAFLayer returns the DS/SS core of the slot's PAF layer, or nil while the
// slot holds its exact operator.
func (s *Slot) PAFLayer() *Scaling {
	if l, ok := s.holder.Impl.(interface{ scaling() *Scaling }); ok {
		return l.scaling()
	}
	return nil
}

// Model is a feed-forward network with registered non-polynomial slots.
type Model struct {
	Name     string
	layers   []Layer
	slots    []*Slot
	dropouts []*Dropout
}

// NewModel wraps an ordered layer list.
func NewModel(name string, layers ...Layer) *Model {
	return &Model{Name: name, layers: layers}
}

// AddLayer appends a layer.
func (m *Model) AddLayer(l Layer) { m.layers = append(m.layers, l) }

// registerSlot records a replaceable operator (called by model builders in
// inference order).
func (m *Model) registerSlot(kind SlotKind, holder *Act, kernel, stride, pad int) *Slot {
	s := &Slot{
		Index:  len(m.slots),
		Kind:   kind,
		Label:  fmt.Sprintf("%s.slot%d.%s", m.Name, len(m.slots), kind),
		holder: holder,
		kernel: kernel, stride: stride, pad: pad,
	}
	m.slots = append(m.slots, s)
	return s
}

// registerDropout records a dropout layer for scheduler control.
func (m *Model) registerDropout(d *Dropout) { m.dropouts = append(m.dropouts, d) }

// Slots returns the non-polynomial operators in inference order.
func (m *Model) Slots() []*Slot { return m.slots }

// ReLUSlots returns only the ReLU slots.
func (m *Model) ReLUSlots() []*Slot {
	var out []*Slot
	for _, s := range m.slots {
		if s.Kind == SlotReLU {
			out = append(out, s)
		}
	}
	return out
}

// SetDropoutEnabled toggles all registered dropout layers (Fig. 6's
// overfitting response).
func (m *Model) SetDropoutEnabled(on bool) {
	for _, d := range m.dropouts {
		d.Enabled = on
	}
}

// Forward runs the network.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range m.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the loss gradient, accumulating parameter grads.
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(m.layers) - 1; i >= 0; i-- {
		grad = m.layers[i].Backward(grad)
	}
	return grad
}

// Params returns all parameters (including PAF coefficients of replaced
// slots).
func (m *Model) Params() []*Param {
	var out []*Param
	for _, l := range m.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrad clears all gradients.
func (m *Model) ZeroGrad() {
	for _, p := range m.Params() {
		clear(p.Grad)
	}
}

// SetGroupFrozen freezes or unfreezes all parameters of a group — the
// mechanism behind Alternate Training.
func (m *Model) SetGroupFrozen(group string, frozen bool) {
	for _, p := range m.Params() {
		if p.Group == group {
			p.Frozen = frozen
		}
	}
}

// Snapshot copies every parameter vector (valid only while the model
// structure — the set of replaced slots — is unchanged).
func (m *Model) Snapshot() [][]float64 {
	params := m.Params()
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Data...)
	}
	return out
}

// Restore writes a snapshot back into the parameters.
func (m *Model) Restore(snap [][]float64) error {
	params := m.Params()
	if len(snap) != len(params) {
		return fmt.Errorf("nn: snapshot has %d tensors, model has %d (structure changed?)", len(snap), len(params))
	}
	for i, p := range params {
		if len(snap[i]) != len(p.Data) {
			return fmt.Errorf("nn: snapshot tensor %d has %d values, parameter %q has %d",
				i, len(snap[i]), p.Name, len(p.Data))
		}
		copy(p.Data, snap[i])
	}
	return nil
}

// Deploy converts every replaced slot to Static Scaling (FHE-compatible).
// It fails if any replaced slot never saw training data.
func (m *Model) Deploy() error {
	for _, s := range m.slots {
		if h := s.PAFLayer(); h != nil {
			if err := h.Deploy(); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckFHECompatible verifies all slots are replaced and statically scaled.
func (m *Model) CheckFHECompatible() error {
	for _, s := range m.slots {
		h := s.PAFLayer()
		if h == nil {
			return fmt.Errorf("nn: slot %d (%s) still holds a non-polynomial operator", s.Index, s.Kind)
		}
		if h.Mode != ScaleStatic {
			return fmt.Errorf("nn: slot %d uses dynamic scaling (value-dependent, not FHE-compatible)", s.Index)
		}
	}
	return nil
}

// BasicBlock is the ResNet-18 residual block: two 3×3 conv+bn pairs with a
// projection shortcut when shape changes. Its two activations register as
// model slots.
type BasicBlock struct {
	conv1 *Conv2D
	bn1   *BatchNorm2D
	act1  *Act
	conv2 *Conv2D
	bn2   *BatchNorm2D
	act2  *Act

	scConv *Conv2D
	scBN   *BatchNorm2D

	branchIn *tensor.Tensor
	label    string
}

// NewBasicBlock constructs a residual block and registers its activations as
// slots on m.
func NewBasicBlock(m *Model, name string, inC, outC, stride int, rng randSource) *BasicBlock {
	b := &BasicBlock{label: name}
	b.conv1 = NewConv2D(name+".conv1", inC, outC, 3, stride, 1, rng)
	b.bn1 = NewBatchNorm2D(name+".bn1", outC)
	b.act1 = &Act{Impl: NewReLU()}
	b.conv2 = NewConv2D(name+".conv2", outC, outC, 3, 1, 1, rng)
	b.bn2 = NewBatchNorm2D(name+".bn2", outC)
	b.act2 = &Act{Impl: NewReLU()}
	if stride != 1 || inC != outC {
		b.scConv = NewConv2D(name+".sc", inC, outC, 1, stride, 0, rng)
		b.scBN = NewBatchNorm2D(name+".scbn", outC)
	}
	m.registerSlot(SlotReLU, b.act1, 0, 0, 0)
	m.registerSlot(SlotReLU, b.act2, 0, 0, 0)
	return b
}

// Name implements Layer.
func (b *BasicBlock) Name() string { return b.label }

// Forward implements Layer.
func (b *BasicBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b.branchIn = x
	h := b.conv1.Forward(x, train)
	h = b.bn1.Forward(h, train)
	h = b.act1.Forward(h, train)
	h = b.conv2.Forward(h, train)
	h = b.bn2.Forward(h, train)

	var sc *tensor.Tensor
	if b.scConv != nil {
		sc = b.scConv.Forward(x, train)
		sc = b.scBN.Forward(sc, train)
	} else {
		sc = x
	}
	h = h.Clone()
	h.AddInPlace(sc)
	return b.act2.Forward(h, train)
}

// Backward implements Layer.
func (b *BasicBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := b.act2.Backward(grad)
	// Branch path.
	gb := b.bn2.Backward(g)
	gb = b.conv2.Backward(gb)
	gb = b.act1.Backward(gb)
	gb = b.bn1.Backward(gb)
	gb = b.conv1.Backward(gb)
	// Shortcut path.
	var gs *tensor.Tensor
	if b.scConv != nil {
		gs = b.scBN.Backward(g)
		gs = b.scConv.Backward(gs)
	} else {
		gs = g
	}
	out := gb.Clone()
	out.AddInPlace(gs)
	return out
}

// Params implements Layer.
func (b *BasicBlock) Params() []*Param {
	out := append([]*Param(nil), b.conv1.Params()...)
	out = append(out, b.bn1.Params()...)
	out = append(out, b.act1.Params()...)
	out = append(out, b.conv2.Params()...)
	out = append(out, b.bn2.Params()...)
	out = append(out, b.act2.Params()...)
	if b.scConv != nil {
		out = append(out, b.scConv.Params()...)
		out = append(out, b.scBN.Params()...)
	}
	return out
}

// probe wraps a layer so fn observes every forward input; used by the
// distribution profiler behind Coefficient Tuning.
type probe struct {
	inner Layer
	fn    func(*tensor.Tensor)
}

// Name implements Layer.
func (p *probe) Name() string { return p.inner.Name() }

// Forward implements Layer.
func (p *probe) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	p.fn(x)
	return p.inner.Forward(x, train)
}

// Backward implements Layer.
func (p *probe) Backward(grad *tensor.Tensor) *tensor.Tensor { return p.inner.Backward(grad) }

// Params implements Layer.
func (p *probe) Params() []*Param { return p.inner.Params() }

// Probe attaches an input observer to the slot's current operator and
// returns a function that removes it.
func (s *Slot) Probe(fn func(*tensor.Tensor)) (restore func()) {
	orig := s.holder.Impl
	s.holder.Impl = &probe{inner: orig, fn: fn}
	return func() { s.holder.Impl = orig }
}
