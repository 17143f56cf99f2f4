package polypool

func balanced(r *Ring) {
	p := r.GetPoly(3)
	use(p)
	r.PutPoly(p)
}

func deferredRelease(r *Ring) {
	p := r.GetPolyRaw(2)
	defer r.PutPoly(p)
	use(p)
}

func earlyReturnLeak(r *Ring, fail bool) error {
	p := r.GetPoly(1)
	if fail {
		return errBad // want "pooled poly p .* is not released on this return path"
	}
	r.PutPoly(p)
	return nil
}

func loopLeak(r *Ring, n int) {
	for i := 0; i < n; i++ {
		p := r.GetPoly(i) // want "acquired in a loop body but not released"
		use(p)
	}
}

func loopBalanced(r *Ring, n int) {
	for i := 0; i < n; i++ {
		p := r.GetPoly(i)
		use(p)
		r.PutPoly(p)
	}
}

func discarded(r *Ring) {
	r.GetPoly(0) // want "is discarded and can never be released"
}

func reassigned(r *Ring) {
	p := r.GetPoly(0)
	p = r.GetPoly(1) // want "reassigned while the previous value"
	r.PutPoly(p)
}

// escapes hands its poly out inside a result slice: ownership moves to
// the caller's structure, not a leak the engine can see.
func escapes(r *Ring) []*Poly {
	p := r.GetPoly(4)
	return []*Poly{p}
}

type accumulator struct{ p *Poly }

func storesField(r *Ring, acc *accumulator) {
	p := r.GetPoly(2)
	acc.p = p
}

// closureRelease hands the release obligation to a worker-pool closure —
// the repo's Submit idiom.
func closureRelease(r *Ring, submit func(func())) {
	p := r.GetPoly(5)
	submit(func() {
		use(p)
		r.PutPoly(p)
	})
}

//hennlint:transfers-ownership the caller owns both returned polys
func freshPair(r *Ring) (*Poly, *Poly) {
	a := r.GetPoly(1)
	b := r.GetPoly(1)
	return a, b
}

func pairedCaller(r *Ring) {
	a, b := freshPair(r)
	use(a)
	use(b)
	r.PutPoly(a)
	r.PutPoly(b)
}

func leakyCaller(r *Ring) {
	a, b := freshPair(r)
	use(a)
	use(b)
	r.PutPoly(a)
} // want "owned result of freshPair b .* is not released"

func returnsUnannotated(r *Ring) *Poly {
	p := r.GetPoly(3)
	return p // want "escapes via return; release it before returning or annotate"
}

func scratchBalanced(r *Ring) uint64 {
	buf := r.GetScratch()
	v := buf[0]
	r.PutScratch(buf)
	return v
}

func scratchLeak(r *Ring, fail bool) error {
	buf := r.GetScratch()
	use(&Poly{level: int(buf[0])})
	if fail {
		return errBad // want "pooled scratch buffer buf .* is not released"
	}
	r.PutScratch(buf)
	return nil
}

func hoistedBalanced(ev *Evaluator, r *Ring) {
	p := r.GetPoly(2)
	h := ev.DecomposeHoisted(p)
	use(p)
	h.Release()
	r.PutPoly(p)
}

func hoistedLeak(ev *Evaluator, r *Ring, fail bool) error {
	p := r.GetPoly(2)
	h := ev.DecomposeHoisted(p)
	use(p)
	if fail {
		r.PutPoly(p)
		return errBad // want "hoisted decomposition h .* is not released"
	}
	h.Release()
	r.PutPoly(p)
	return nil
}

func plainSumDeferred(ev *Evaluator, p *Poly) error {
	sum := ev.NewPlainSum(2)
	defer sum.Release()
	if err := sum.MulPlainThenAdd(p); err != nil {
		return err
	}
	return nil
}

// Sum empties the accumulators but is not the release: a sum that took a
// term and bailed out still holds pooled polys.
func plainSumLeak(ev *Evaluator, p *Poly) error {
	sum := ev.NewPlainSum(2)
	if err := sum.MulPlainThenAdd(p); err != nil {
		return err // want "plaintext-product sum sum .* is not released on this return path"
	}
	_, err := sum.Sum()
	sum.Release()
	return err
}

func bad(p *Poly) bool { return p.level < 0 }

// A break or continue leaves the iteration with the poly still owed:
// the path is handed to the enclosing loop, not dropped.
func loopBreakLeak(r *Ring, n int) {
	for i := 0; i < n; i++ {
		p := r.GetPoly(i) // want "acquired in a loop body but not released"
		if bad(p) {
			break
		}
		r.PutPoly(p)
	}
}

func loopContinueLeak(r *Ring, n int) {
	for i := 0; i < n; i++ {
		p := r.GetPoly(i) // want "acquired in a loop body but not released"
		if bad(p) {
			continue
		}
		r.PutPoly(p)
	}
}

// A break inside a switch leaves the switch, not the loop: the release
// below it still runs.
func loopSwitchBreak(r *Ring, n int) {
	for i := 0; i < n; i++ {
		p := r.GetPoly(i)
		switch {
		case bad(p):
			break
		default:
			use(p)
		}
		r.PutPoly(p)
	}
}
