//go:build !race

package henn

const raceEnabled = false
