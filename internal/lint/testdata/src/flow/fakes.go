// Package flow is the fixture for the statement walker under the pairing
// engine (internal/lint/flow.go): one function per control-flow
// construct, each written so that a dropped arm or a wrong join changes
// a polypool diagnostic. The mutex calls in pool.go are inert; they stay
// so that every line, and so every golden position, is unchanged.
package flow

import "sync"

type Poly struct{ level int }

type Ring struct{}

func (r *Ring) GetPoly(level int) *Poly { return &Poly{level: level} }
func (r *Ring) PutPoly(p *Poly)         {}

type box struct {
	mu sync.Mutex
	// guarded by mu
	n     int
	items []int // guarded by mu
	ch    chan int
}

func use(p *Poly) {}

func bad(p *Poly) bool { return p.level < 0 }

// locked takes and drops m: a call that acquires, for operands.
func locked(m *sync.Mutex) int {
	m.Lock()
	m.Unlock()
	return 0
}
