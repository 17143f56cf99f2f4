package smartpaf

import (
	"fmt"

	"github.com/efficientfhe/smartpaf/internal/data"
	"github.com/efficientfhe/smartpaf/internal/nn"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/parallel"
)

// EventKind tags points on the training curve (the Fig. 9 markers).
type EventKind string

// Event kinds mirroring Fig. 9's legend.
const (
	EventReplace EventKind = "replace" // a slot was replaced with a PAF
	EventSWA     EventKind = "swa"     // SWA average adopted
	EventAT      EventKind = "at"      // alternate-training target swap
	EventDropout EventKind = "dropout" // dropout enabled on overfitting
	EventBest    EventKind = "best"    // new best model adopted
)

// Event is one scheduler action, indexed by the global epoch counter.
type Event struct {
	Epoch int
	Kind  EventKind
	Label string
}

// CurvePoint is one epoch of the Fig. 9 validation-accuracy trace.
type CurvePoint struct {
	Epoch    int
	TrainAcc float64
	ValAcc   float64
}

// Result aggregates everything the evaluation tables need from one run.
type Result struct {
	Config Config

	// OriginalAcc is the exact-operator model's validation accuracy.
	OriginalAcc float64
	// InitialAcc is the post-replacement accuracy without fine-tuning
	// (the Fig. 7 metric), under dynamic scaling.
	InitialAcc float64
	// FinalAccDS is the best fine-tuned accuracy with Dynamic Scaling.
	FinalAccDS float64
	// FinalAccSS is the FHE-deployable accuracy after Static Scaling
	// conversion (the grey columns of Table 3).
	FinalAccSS float64

	Curve  []CurvePoint
	Events []Event
}

// pipeline is one Run's state: SMART-PAF (or a baseline ablation) driven
// over a model.
type pipeline struct {
	model *nn.Model
	train *data.Dataset
	cfg   Config

	epoch    int
	curve    []CurvePoint
	events   []Event
	valCache []data.Batch
	trCache  []data.Batch

	// restrictPAF, when set, limits trainable PAF coefficients to one slot
	// (the DirectProgressiveTraining mode).
	restrictPAF *nn.Slot
}

func (p *pipeline) valAcc() float64 { return nn.Accuracy(p.model, p.valCache) }

func (p *pipeline) trainAcc() float64 { return nn.Accuracy(p.model, p.trCache) }

func (p *pipeline) event(kind EventKind, label string) {
	p.events = append(p.events, Event{Epoch: p.epoch, Kind: kind, Label: label})
}

// targetSlots returns the slots to replace under the config.
func (p *pipeline) targetSlots() []*nn.Slot {
	if p.cfg.ReplaceMaxPool {
		return p.model.Slots()
	}
	return p.model.ReLUSlots()
}

// buildAllPAFs constructs the replacement composite for every target slot,
// applying CT when enabled. The per-slot fits are independent and
// deterministic, so they fan across all cores without changing a bit of the
// result; out[i] belongs to slots[i].
func (p *pipeline) buildAllPAFs(slots []*nn.Slot, profiles []*Profile) ([]*paf.Composite, error) {
	out := make([]*paf.Composite, len(slots))
	err := parallel.For(len(slots), parallel.Workers(-1), func(i int) error {
		c, err := paf.New(p.cfg.Form)
		if err != nil {
			return err
		}
		if p.cfg.CT {
			c = CoefficientTuning(c, profiles[slots[i].Index])
		}
		out[i] = c
		return nil
	})
	return out, err
}

// trainEpoch runs one epoch over the training set with per-group optimizers
// honouring frozen flags, then records the curve point.
func (p *pipeline) trainEpoch(optPAF, optLinear *nn.Adam) {
	perm := p.train.Shuffle(p.cfg.Seed + int64(p.epoch))
	for _, b := range p.train.Batches(BatchSize, perm) {
		nn.TrainStep(p.model, b, optPAF, optLinear)
	}
	p.epoch++
	p.curve = append(p.curve, CurvePoint{Epoch: p.epoch, TrainAcc: p.trainAcc(), ValAcc: p.valAcc()})
}

// runStep executes one Fig. 6 step: training groups with SWA, improvement
// detection, dropout-on-overfit, and (optionally) alternate training.
func (p *pipeline) runStep(label string) {
	cfg := p.cfg
	best := p.valAcc()
	bestSnap := p.model.Snapshot()
	applyAT := false // false: train PAF coefficients; true: train linear layers
	dropoutOn := false

	optPAF := nn.NewAdam(LRPAF, WDPAF)
	optLinear := nn.NewAdam(LRLinear, WDLinear)

	for group := 0; group < cfg.MaxGroupsPerStep; group++ {
		// Select training targets.
		pafFrozen := cfg.AT && applyAT
		if cfg.AT {
			p.model.SetGroupFrozen(nn.GroupPAF, applyAT)
			p.model.SetGroupFrozen(nn.GroupLinear, !applyAT)
		} else {
			p.model.SetGroupFrozen(nn.GroupPAF, false)
			p.model.SetGroupFrozen(nn.GroupLinear, false)
		}
		if p.restrictPAF != nil && !pafFrozen {
			p.model.SetGroupFrozen(nn.GroupPAF, true)
			for _, prm := range p.restrictPAF.PAFLayer().Params() {
				prm.Frozen = false
			}
		}

		swa := nn.NewSWA()
		groupBest := -1.0
		var groupBestSnap [][]float64
		for e := 0; e < cfg.Epochs; e++ {
			p.trainEpoch(optPAF, optLinear)
			swa.Accumulate(p.model)
			if acc := p.curve[len(p.curve)-1].ValAcc; acc > groupBest {
				groupBest = acc
				groupBestSnap = p.model.Snapshot()
			}
		}
		// Try the SWA average; keep whichever of {per-epoch best, SWA} wins.
		cur := p.model.Snapshot()
		if avg := swa.Average(); avg != nil {
			if err := p.model.Restore(avg); err == nil {
				if acc := p.valAcc(); acc > groupBest {
					groupBest = acc
					groupBestSnap = avg
					p.event(EventSWA, label)
				} else if err := p.model.Restore(cur); err != nil {
					panic(err)
				}
			}
		}
		if groupBestSnap != nil {
			if err := p.model.Restore(groupBestSnap); err != nil {
				panic(err)
			}
		}

		improved := groupBest > best+minDelta
		if improved {
			best = groupBest
			bestSnap = p.model.Snapshot()
			p.event(EventBest, label)
			applyAT = false
			continue
		}
		if p.overfitting() && !dropoutOn {
			dropoutOn = true
			p.model.SetDropoutEnabled(true)
			p.event(EventDropout, label)
			continue
		}
		if cfg.AT && !applyAT {
			applyAT = true
			p.event(EventAT, label)
			continue
		}
		break
	}
	if err := p.model.Restore(bestSnap); err != nil {
		panic(err)
	}
	p.model.SetDropoutEnabled(false)
	p.model.SetGroupFrozen(nn.GroupPAF, false)
	p.model.SetGroupFrozen(nn.GroupLinear, false)
}

// overfitting applies the paper's empirical condition:
// training accuracy > validation accuracy + 10%.
func (p *pipeline) overfitting() bool {
	if len(p.curve) == 0 {
		return false
	}
	last := p.curve[len(p.curve)-1]
	return last.TrainAcc > last.ValAcc+0.10
}

// Run executes the configured strategy on m, which should already be
// pretrained with exact operators, and reports the Table 3 metrics. It
// leaves m as it measured FinalAccSS: deployed, every replaced slot
// statically scaled.
func Run(m *nn.Model, train, val *data.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &pipeline{
		model: m, train: train, cfg: cfg,
		valCache: val.Batches(BatchSize, nil),
		trCache:  train.Batches(BatchSize, nil),
	}
	res := &Result{Config: cfg}
	res.OriginalAcc = p.valAcc()

	// Profile the exact-operator model (Fig. 3 step 2). Needed by CT and by
	// InitialAcc bookkeeping regardless, cheap enough to always run.
	profiles := ProfileSlots(m, train, cfg.ProfileBatches)

	slots := p.targetSlots()

	// Build every slot's tuned composite once; each replacement site below
	// clones it, so the uses stay independent exactly as when built one by one.
	comps, err := p.buildAllPAFs(slots, profiles)
	if err != nil {
		return nil, err
	}

	// Post-replacement accuracy without fine-tuning (Fig. 7): replace all
	// targets, measure, then restore the exact operators.
	for i, s := range slots {
		s.ReplaceWithPAF(comps[i].Clone())
	}
	res.InitialAcc = p.valAcc()
	for _, s := range slots {
		s.RestoreExact()
	}

	// Replacement + fine-tuning.
	if cfg.PA {
		for i, s := range slots {
			s.ReplaceWithPAF(comps[i].Clone())
			p.event(EventReplace, fmt.Sprintf("%s %d", s.Kind, s.Index))
			p.seedRunningMax(s, profiles)
			p.runStep(fmt.Sprintf("slot%d", s.Index))
		}
	} else {
		for i, s := range slots {
			s.ReplaceWithPAF(comps[i].Clone())
			p.seedRunningMax(s, profiles)
		}
		p.event(EventReplace, "all")
		// Same training budget as PA would get, in one direct phase.
		for i := 0; i < len(slots); i++ {
			if cfg.DirectProgressiveTraining {
				p.restrictPAF = slots[i]
			}
			p.runStep(fmt.Sprintf("direct%d", i))
		}
		p.restrictPAF = nil
	}

	res.FinalAccDS = p.valAcc()

	// Static Scaling conversion: freeze scales to running maxima and measure
	// the FHE-deployable accuracy.
	if err := m.Deploy(); err != nil {
		return nil, err
	}
	if cfg.ReplaceMaxPool {
		// ReLU-only runs keep exact MaxPool, so full FHE compatibility holds
		// only when every slot was replaced.
		if err := m.CheckFHECompatible(); err != nil {
			return nil, fmt.Errorf("smartpaf: deployed model not FHE-compatible: %w", err)
		}
	}
	res.FinalAccSS = p.valAcc()

	res.Curve = p.curve
	res.Events = p.events
	return res, nil
}

// seedRunningMax initializes the slot's running max from the profile so SS
// conversion works even if training never raises it.
func (p *pipeline) seedRunningMax(s *nn.Slot, profiles []*Profile) {
	if s.Index >= len(profiles) || profiles[s.Index] == nil {
		return
	}
	if h := s.PAFLayer(); h.RunningMax < profiles[s.Index].Max {
		h.RunningMax = profiles[s.Index].Max
	}
}

// Pretrain trains the exact-operator model for the given number of epochs
// (producing the "Original Accuracy" reference row).
func Pretrain(m *nn.Model, train *data.Dataset, epochs int, lr float64, seed int64) {
	opt := nn.NewAdam(lr, 1e-4)
	for e := 0; e < epochs; e++ {
		perm := train.Shuffle(seed + int64(e))
		for _, b := range train.Batches(BatchSize, perm) {
			nn.TrainStep(m, b, nil, opt)
		}
	}
}
