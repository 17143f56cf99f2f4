// Package flow is the fixture for the statement walker every
// flow-sensitive analyzer shares (internal/lint/flow.go): one function
// per control-flow construct, each written so that a dropped arm or a
// wrong join changes a diagnostic. pool.go drives polypool and
// lockguard through want markers; order.go drives lockorder, whose
// per-function lock classes the test reads off the lock graph.
package flow

import "sync"

type Poly struct{ level int }

type Ring struct{}

func (r *Ring) GetPoly(level int) *Poly { return &Poly{level: level} }
func (r *Ring) PutPoly(p *Poly)         {}

type box struct {
	mu sync.Mutex
	//hennlint:guarded-by(mu)
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
