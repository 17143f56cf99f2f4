// Package levelbudget is the levelbudget analyzer's test fixture: call
// sites sizing a chain or gating a depth with a ±k margin on
// LevelsRequired() (the PR 3 off-by-one), and the named-intermediate idiom
// that is allowed.
package levelbudget

type MLP struct{ Layers []any }

func (mlp *MLP) LevelsRequired() int { return len(mlp.Layers) }

// ChainLength seeds the PR 3 off-by-one: a +1 margin on the exact
// budget at a sizing call site.
func ChainLength(mlp *MLP) int {
	return mlp.LevelsRequired() + 1 // want "arithmetic on LevelsRequired"
}

// GateDepth seeds the subtraction flavor of the same bug.
func GateDepth(mlp *MLP, maxLevel int) bool {
	return maxLevel-mlp.LevelsRequired() >= 0 // want "arithmetic on LevelsRequired"
}

// ChainLengthExact derives the prime-chain length from a named budget
// variable: allowed, and the idiom the fix uses.
func ChainLengthExact(mlp *MLP) []int {
	levels := mlp.LevelsRequired()
	return make([]int, levels+1)
}
