package flow

import "sync"

// Every function below locks its own a and b, so each forms (or must
// not form) the edge flow.<func>.a -> flow.<func>.b on its own; the
// expected set is the table in flow_test.go.

func orderIfBothTerminate(c bool) {
	var a, b sync.Mutex
	a.Lock()
	if c {
		a.Unlock()
		return
	} else {
		b.Lock()
		b.Unlock()
		a.Unlock()
		return
	}
}

func orderIfNoElse(c bool) {
	var a, b sync.Mutex
	a.Lock()
	if c {
		a.Unlock()
	}
	b.Lock()
	b.Unlock()
	if !c {
		a.Unlock()
	}
}

func orderForBody(n int) {
	var a, b sync.Mutex
	for i := 0; i < n; i++ {
		a.Lock()
	}
	b.Lock()
	b.Unlock()
	a.Unlock()
}

func orderForPost(n int) {
	var a, b sync.Mutex
	a.Lock()
	for i := 0; i < n; i += locked(&b) {
	}
	a.Unlock()
}

func orderRangeOperand(xs [][]int) {
	var a, b sync.Mutex
	a.Lock()
	for range xs[locked(&b)] {
	}
	a.Unlock()
}

func orderSwitchDefault(k int) {
	var a, b sync.Mutex
	a.Lock()
	switch k {
	case 0:
		a.Unlock()
	default:
		a.Unlock()
	}
	b.Lock()
	b.Unlock()
}

func orderSwitchNoDefault(k int) {
	var a, b sync.Mutex
	a.Lock()
	switch k {
	case 0:
		a.Unlock()
	}
	b.Lock()
	b.Unlock()
	if k != 0 {
		a.Unlock()
	}
}

func orderSwitchTag(k int) {
	var a, b sync.Mutex
	a.Lock()
	switch locked(&b) {
	case k:
	}
	a.Unlock()
}

func orderTypeSwitchInit(v any) {
	var a, b sync.Mutex
	switch a.Lock(); v.(type) {
	case int:
		b.Lock()
		b.Unlock()
	}
	a.Unlock()
}

func orderSelectComm(ch chan int) {
	var a, b sync.Mutex
	a.Lock()
	select {
	case ch <- locked(&b):
	default:
	}
	a.Unlock()
}

func orderLabeled(n int) {
	var a, b sync.Mutex
	a.Lock()
loop:
	for i := 0; i < n; i++ {
		b.Lock()
		b.Unlock()
		continue loop
	}
	a.Unlock()
}

func orderDeferred() {
	var a, b sync.Mutex
	a.Lock()
	defer a.Unlock()
	b.Lock()
	b.Unlock()
}

func orderGoLiteral() {
	var a, b sync.Mutex
	a.Lock()
	go func() {
		b.Lock()
		b.Unlock()
	}()
	a.Unlock()
}

func orderInvokedLiteral() {
	var a, b sync.Mutex
	a.Lock()
	func() {
		b.Lock()
		b.Unlock()
	}()
	a.Unlock()
}

func orderStoredLiteral() {
	var a, b sync.Mutex
	a.Lock()
	f := func() {
		b.Lock()
		b.Unlock()
	}
	a.Unlock()
	f()
}

func orderLoopBreak(n int) {
	var a, b sync.Mutex
	for i := 0; i < n; i++ {
		a.Lock()
		if i == 3 {
			break
		}
		a.Unlock()
	}
	b.Lock()
	b.Unlock()
	a.Unlock()
}

func orderSwitchBreak(n int) {
	var a, b sync.Mutex
	for i := 0; i < n; i++ {
		a.Lock()
		switch {
		case i == 3:
			break
		}
		a.Unlock()
	}
	b.Lock()
	b.Unlock()
}
