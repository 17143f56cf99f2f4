// Package polypool is the polypool analyzer's test fixture. The types
// mirror the real internal/ring and internal/ckks shapes by name only —
// the analyzer matches receiver type names, so the fixture stays
// self-contained.
package polypool

import "errors"

type Poly struct{ level int }

type Ring struct{ polys []*Poly }

func (r *Ring) GetPoly(level int) *Poly    { return &Poly{level: level} }
func (r *Ring) GetPolyRaw(level int) *Poly { return &Poly{level: level} }
func (r *Ring) GetScratch() []uint64       { return make([]uint64, 8) }
func (r *Ring) PutPoly(p *Poly)            {}
func (r *Ring) PutScratch(buf []uint64)    {}

type HoistedDecomposition struct{ digits int }

func (h *HoistedDecomposition) Release() {}

type Evaluator struct{ r *Ring }

func (ev *Evaluator) DecomposeHoisted(p *Poly) *HoistedDecomposition {
	return &HoistedDecomposition{digits: p.level}
}

type PlainSum struct{ terms int }

func (s *PlainSum) MulPlainThenAdd(p *Poly) error { s.terms++; return nil }
func (s *PlainSum) Sum() (*Poly, error)           { return &Poly{}, nil }
func (s *PlainSum) Release()                      {}

func (ev *Evaluator) NewPlainSum(level int) *PlainSum { return &PlainSum{} }

func use(p *Poly) {}

var errBad = errors.New("bad input")
