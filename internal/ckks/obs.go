package ckks

import (
	"sync/atomic"
	"time"
)

// StageObserver receives the duration of one completed CKKS primitive
// stage. It is process-wide, so it suits a tool that owns the process:
// hennbench's layer pass counts stages through it, and tests use it to count
// or hold primitives. The serving layer does not install one; it reads stage
// time from each unit's trace. Nothing is installed by default and the
// disabled cost is a single atomic pointer load per stage.
//
// Stage names: "key_switch", "rescale", "decompose_hoisted",
// "rotate_hoisted", "rotate", "encode". Stages overlap where primitives
// nest — "rotate" and "rotate_hoisted" both include the "key_switch" (or
// hoisted multiply-accumulate) work they perform — so totals are per-stage
// views, not a partition of wall time. A MulRelinRescale is one
// "key_switch": its rescale is part of the key switch's division, so
// "rescale" counts only Rescale's own calls.
//
// Observers must be fast and must not call back into the evaluator; they
// run inline on the hot path, possibly from many goroutines at once.
type StageObserver func(stage string, d time.Duration)

var stageObs atomic.Pointer[StageObserver]

// SetStageObserver installs the process-wide stage observer; nil removes
// it.
func SetStageObserver(f StageObserver) {
	if f == nil {
		stageObs.Store(nil)
		return
	}
	stageObs.Store(&f)
}

// stageClock returns a start mark, or the zero Time when no observer is
// installed — so disabled instrumentation never reads the clock.
func stageClock() time.Time {
	if stageObs.Load() == nil {
		return time.Time{}
	}
	return time.Now()
}

// stageDone reports the stage to the observer, if one was installed when
// the stage started.
func stageDone(stage string, start time.Time) {
	if start.IsZero() {
		return
	}
	if f := stageObs.Load(); f != nil {
		(*f)(stage, time.Since(start))
	}
}
