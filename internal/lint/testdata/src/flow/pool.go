package flow

// Both arms terminate: nothing falls out of the if, so the closing
// brace must not be checked a second time.
func ifBothTerminate(r *Ring, b *box, c bool) int {
	p := r.GetPoly(0)
	b.mu.Lock()
	if c {
		r.PutPoly(p)
		b.mu.Unlock()
		return 0
	} else {
		return b.n // want "pooled poly p .* is not released on this return path"
	}
}

// One arm, no else: the join is released-or-live and unheld-or-held,
// neither of which is provable.
func ifNoElse(r *Ring, b *box, c bool) {
	p := r.GetPoly(0)
	b.mu.Lock()
	if c {
		r.PutPoly(p)
		b.mu.Unlock()
	}
	b.n++
}

// Post runs at the end of each iteration, under the body's state.
func forPost(r *Ring, b *box, n int) {
	b.mu.Lock()
	for i := 0; i < n; b.n++ {
		p := r.GetPoly(i) // want "acquired in a loop body but not released"
		use(p)
		i++
	}
	b.mu.Unlock()
	for i := 0; i < n; b.n++ {
		i++
	}
}

// The range operand is an expression the client must see.
func rangeOperand(r *Ring, b *box) {
	for _, l := range b.items {
		p := r.GetPoly(l)
		use(p)
		r.PutPoly(p)
	}
}

// With a default every path runs a clause: the incoming state does not
// survive the switch.
func switchDefault(r *Ring, b *box, k int) {
	p := r.GetPoly(0)
	b.mu.Lock()
	switch k {
	case 0:
		r.PutPoly(p)
		b.mu.Unlock()
	default:
		r.PutPoly(p)
		b.mu.Unlock()
	}
	b.n++
}

// Without one, the path that matches no clause falls past unchanged.
func switchNoDefault(r *Ring, b *box, k int) {
	p := r.GetPoly(0)
	b.mu.Lock()
	switch k {
	case 0:
		r.PutPoly(p)
		b.mu.Unlock()
	}
	b.n++
}

// The tag and the case lists are expressions too.
func switchOperands(b *box, k int) {
	switch b.n {
	case k:
	case len(b.items):
	}
}

func typeSwitchInit(r *Ring, b *box, v any) {
	switch p := r.GetPoly(0); x := v.(type) {
	case int:
		use(p)
		r.PutPoly(p)
		b.n = x
	case string:
		return // want "pooled poly p .* is not released on this return path"
	default:
		r.PutPoly(p)
	}
}

func typeSwitchInitLock(b *box, v any) {
	switch b.mu.Lock(); x := v.(type) {
	case int:
		b.n = x
	}
	b.mu.Unlock()
}

// A clause's communication runs on that clause's path only.
func selectComm(r *Ring, b *box, out chan *Poly) {
	p := r.GetPoly(0)
	select {
	case out <- p:
		return
	case b.ch <- b.n:
		r.PutPoly(p)
	}
}

// A label is transparent; a labeled branch is not followed.
func labeled(r *Ring, b *box, n int) {
outer:
	for i := 0; i < n; i++ {
		p := r.GetPoly(i) // want "acquired in a loop body but not released"
		if i == 3 {
			r.PutPoly(p)
			continue outer
		}
		use(p)
	}
	b.n++
}

func deferred(r *Ring, b *box, c bool) int {
	p := r.GetPoly(0)
	defer r.PutPoly(p)
	b.mu.Lock()
	defer b.mu.Unlock()
	if c {
		return b.n
	}
	return 0
}

// A spawned literal owns what it releases; its body is a scope of its own.
func goLiteral(r *Ring, b *box) {
	p := r.GetPoly(0)
	go func() {
		b.n++
		r.PutPoly(p)
	}()
}

// A literal, invoked where it is written or stored for later, may run
// under the lock or after it: held locks are only maybe-held inside.
func invokedLiteral(r *Ring, b *box) {
	p := r.GetPoly(0)
	b.mu.Lock()
	func() {
		b.n++
		r.PutPoly(p)
	}()
	b.mu.Unlock()
}

func storedLiteral(r *Ring, b *box) func() {
	p := r.GetPoly(0)
	done := func() {
		b.n++
		r.PutPoly(p)
	}
	return done
}

// panic ends the path for the lock walk (nothing returns while held),
// so only the unlocked path reaches the increment.
func panics(r *Ring, b *box, c bool) {
	p := r.GetPoly(0)
	b.mu.Lock()
	if c {
		panic("flow: bad input")
	}
	r.PutPoly(p)
	b.mu.Unlock()
	b.n++
}

// break and continue carry their state to the loop they leave.
func loopBreak(r *Ring, b *box, n int) {
	for i := 0; i < n; i++ {
		p := r.GetPoly(i) // want "acquired in a loop body but not released"
		b.mu.Lock()
		if bad(p) {
			break
		}
		b.mu.Unlock()
		r.PutPoly(p)
	}
	b.n++
}

func loopContinue(r *Ring, n int) {
	for i := 0; i < n; i++ {
		p := r.GetPoly(i) // want "acquired in a loop body but not released"
		if bad(p) {
			continue
		}
		r.PutPoly(p)
	}
}

// A break inside a switch or select leaves that statement, not the loop.
func switchBreak(r *Ring, b *box, n int) {
	for i := 0; i < n; i++ {
		p := r.GetPoly(i)
		b.mu.Lock()
		switch {
		case bad(p):
			break
		default:
			b.n++
		}
		b.mu.Unlock()
		r.PutPoly(p)
	}
}
