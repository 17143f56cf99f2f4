//go:build race

package server

// raceEnabled reports whether the race detector is compiled in: under it
// sync.Pool drops a share of every Put and allocations are instrumented, so
// allocation bounds do not hold.
const raceEnabled = true
