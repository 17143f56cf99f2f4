package ckks

import (
	"maps"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestStageObserver: an installed observer sees the primitive stages a
// rotation pipeline executes, with plausible durations, and uninstalling
// it stops the reports. The observer is process-global, so the test
// restores the disabled state before returning.
func TestStageObserver(t *testing.T) {
	tc, _ := newRotationContext(t, []int{1})
	rng := rand.New(rand.NewSource(31))
	values := randomComplex(rng, tc.params.Slots(), 1)
	pt, _ := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale())
	ct := tc.encr.Encrypt(pt)

	var mu sync.Mutex
	seen := map[string]time.Duration{}
	count := map[string]int{}
	SetStageObserver(func(stage string, d time.Duration) {
		if d < 0 {
			t.Errorf("stage %s reported negative duration %v", stage, d)
		}
		mu.Lock()
		seen[stage] += d
		count[stage]++
		mu.Unlock()
	})
	defer SetStageObserver(nil)

	if _, err := tc.eval.Rotate(ct, 1); err != nil {
		t.Fatal(err)
	}
	dec := tc.eval.DecomposeHoisted(ct)
	if _, err := tc.eval.RotateHoisted(dec, 1); err != nil {
		t.Fatal(err)
	}
	dec.Release()
	prod := tc.eval.MulPlain(ct, pt)
	if _, err := tc.eval.Rescale(prod); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.enc.Encode(values, tc.params.MaxLevel(), tc.params.DefaultScale()); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, stage := range []string{"rotate", "key_switch", "decompose_hoisted", "rotate_hoisted", "rescale", "encode"} {
		if _, ok := seen[stage]; !ok {
			t.Errorf("stage %q never observed; saw %v", stage, seen)
		}
	}

	// One report per operation under its own name: a plain rotation shares
	// its arithmetic with the hoisted path but is still one "rotate" holding
	// one "key_switch", not a "decompose_hoisted" and a "rotate_hoisted" —
	// hennbench's exact rotation and key-switch counts read these.
	if want := map[string]int{"rotate": 1, "key_switch": 1, "decompose_hoisted": 1, "rotate_hoisted": 1, "rescale": 1, "encode": 1}; !maps.Equal(count, want) {
		t.Errorf("stage counts %v, want %v", count, want)
	}

	// Uninstall and confirm silence.
	SetStageObserver(nil)
	before := len(seen)
	if _, err := tc.eval.Rotate(ct, 1); err != nil {
		t.Fatal(err)
	}
	if len(seen) != before {
		t.Fatal("observer fired after uninstall")
	}
}
