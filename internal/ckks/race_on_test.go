//go:build race

package ckks

// raceEnabled reports whether the race detector is compiled in: under it
// sync.Pool drops a share of every Put, so pool-backed allocation bounds do
// not hold.
const raceEnabled = true
