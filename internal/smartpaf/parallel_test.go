package smartpaf

import (
	"testing"

	"github.com/efficientfhe/smartpaf/internal/paf"
)

// TestBuildAllPAFsParallelMatchesSerial pins what lets per-slot Coefficient
// Tuning fan across every core unconditionally: the fanned build equals
// CoefficientTuning applied one slot at a time, bit for bit, in slot order.
func TestBuildAllPAFsParallelMatchesSerial(t *testing.T) {
	m, train, val := tinySetup(t, 1)
	cfg := testConfig(paf.FormF1G2)
	p, err := NewPipeline(m, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	profiles := ProfileSlots(m, train, cfg.ProfileBatches)
	slots := p.targetSlots()
	if len(slots) < 2 {
		t.Fatalf("want ≥ 2 slots to exercise the fan-out, got %d", len(slots))
	}

	fanned, err := p.buildAllPAFs(slots, profiles)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range slots {
		a := CoefficientTuning(paf.MustNew(cfg.Form), profiles[s.Index])
		b := fanned[i]
		if len(a.Stages) != len(b.Stages) {
			t.Fatalf("slot %d: stage count differs", i)
		}
		for si := range a.Stages {
			ca, cb := a.Stages[si].Coeffs, b.Stages[si].Coeffs
			if len(ca) != len(cb) {
				t.Fatalf("slot %d stage %d: coeff count differs", i, si)
			}
			for k := range ca {
				if ca[k] != cb[k] {
					t.Fatalf("slot %d stage %d coeff %d: serial %v != fanned %v", i, si, k, ca[k], cb[k])
				}
			}
		}
	}
}
