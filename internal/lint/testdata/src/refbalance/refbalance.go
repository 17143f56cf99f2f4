// Package refbalance is the refbalance analyzer's test fixture: a fake
// Deployed with the registry's Retain/Release reference discipline.
package refbalance

import "errors"

type Deployed struct{ refs int }

func (d *Deployed) Retain()  { d.refs++ }
func (d *Deployed) Release() { d.refs-- }

type session struct{ dep *Deployed }

func work(d *Deployed) {}

var errClosed = errors.New("closed")

func balanced(d *Deployed) {
	d.Retain()
	work(d)
	d.Release()
}

func deferBalanced(d *Deployed) {
	d.Retain()
	defer d.Release()
	work(d)
}

func earlyReturnLeak(d *Deployed, fail bool) error {
	d.Retain()
	if fail {
		return errClosed // want "model reference d .* is not released on this return path"
	}
	d.Release()
	return nil
}

// sessionLeak tracks the reference through a selector path, the shape
// the server's scheduler uses (sess.dep.Retain / sess.dep.Release).
func sessionLeak(sess *session, fail bool) error {
	sess.dep.Retain()
	if fail {
		return errClosed // want "model reference sess.dep"
	}
	sess.dep.Release()
	return nil
}

// closureRelease hands the release to a worker-pool closure; the closure
// owns the obligation.
func closureRelease(sess *session, submit func(func())) {
	sess.dep.Retain()
	submit(func() {
		work(sess.dep)
		sess.dep.Release()
	})
}

//hennlint:transfers-ownership the caller inherits the retained reference
func retained(d *Deployed) *Deployed {
	d.Retain()
	return d
}

func transferCaller(d *Deployed) {
	ref := retained(d)
	work(ref)
	ref.Release()
}

func transferLeak(d *Deployed, fail bool) error {
	ref := retained(d)
	work(ref)
	if fail {
		return errClosed // want "owned result of retained ref"
	}
	ref.Release()
	return nil
}

// loopBreakLeak leaves the loop with the iteration's reference held.
func loopBreakLeak(ds []*Deployed) {
	for _, d := range ds {
		d.Retain() // want "acquired in a loop body but not released"
		if d.refs > 8 {
			break
		}
		d.Release()
	}
}
