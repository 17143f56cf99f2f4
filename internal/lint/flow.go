package lint

import (
	"go/ast"
	"go/token"
)

// The statement walker under the pairing engine (pairing.go).
//
// It is a forward abstract interpretation over the AST of one function
// body. The walker owns structured control flow — which statements run on
// a copy of the state, which copies survive, where they join — and
// nothing else: what a plain statement or an expression does to the state,
// and what is checked at a return or at the end of a loop iteration,
// belong to the pairing analysis. Every arm of a branch runs on a clone of
// the incoming state; arms that terminate (return, or branch away) drop
// out and the survivors merge. A switch or select with no default also
// merges the incoming state, for the path that matches no clause. An
// unlabeled break or continue carries its state to the statement it
// leaves — the innermost loop, or for break the innermost switch or
// select — where it joins the other ways out. Labeled branches, goto and
// fallthrough end the path without following it: nothing is reported on
// a state the walker never sees, so that is the conservative direction.

// flowWalk is one walk over one function body.
type flowWalk struct {
	a *pairAnalysis
	// outs are the enclosing statements an unlabeled break or continue
	// can leave, innermost last.
	outs []*flowOut
}

// flowOut collects the states that leave one loop, switch or select by
// break (for a switch or select: also by running off a clause) and, for a
// loop, by continue.
type flowOut struct {
	loop              bool
	breaks, continues []flowState
}

// flowBody walks body from st, which it may change in place.
func flowBody(a *pairAnalysis, body *ast.BlockStmt, st flowState) {
	w := &flowWalk{a: a}
	if st, terminated := w.stmts(body.List, st); !terminated {
		a.exit(st, body.End(), nil)
	}
}

func (w *flowWalk) stmts(list []ast.Stmt, st flowState) (flowState, bool) {
	for _, s := range list {
		var terminated bool
		if st, terminated = w.stmt(s, st); terminated {
			return st, true
		}
	}
	return st, false
}

func (w *flowWalk) stmt(s ast.Stmt, st flowState) (flowState, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, st)

	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.a.expr(r, st)
		}
		w.a.exit(st, s.Pos(), s.Results)
		return st, true

	case *ast.BranchStmt:
		w.branch(s, st)
		return st, true

	case *ast.IfStmt:
		w.simple(s.Init, st)
		w.a.expr(s.Cond, st)
		thenSt, thenTerm := w.stmt(s.Body, st.clone())
		if s.Else == nil {
			if !thenTerm {
				st.merge(thenSt)
			}
			return st, false
		}
		elseSt, elseTerm := w.stmt(s.Else, st.clone())
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case !elseTerm:
			thenSt.merge(elseSt)
		}
		return thenSt, false

	case *ast.ForStmt:
		w.simple(s.Init, st)
		w.a.expr(s.Cond, st)
		return w.loop(s.Body, s.Post, st), false

	case *ast.RangeStmt:
		w.a.expr(s.X, st)
		return w.loop(s.Body, nil, st), false

	case *ast.SwitchStmt:
		w.simple(s.Init, st)
		w.a.expr(s.Tag, st)
		return w.cases(s.Body, st), false

	case *ast.TypeSwitchStmt:
		w.simple(s.Init, st)
		return w.cases(s.Body, st), false

	case *ast.SelectStmt:
		return w.cases(s.Body, st), false
	}
	w.a.leaf(s, st)
	return st, false
}

// simple applies an init, post or communication statement — the grammar
// allows only leaves there — when there is one.
func (w *flowWalk) simple(s ast.Stmt, st flowState) {
	if s != nil {
		w.a.leaf(s, st)
	}
}

// branch hands the state at an unlabeled break or continue to the
// statement it leaves: the innermost target for break, the innermost loop
// for continue.
func (w *flowWalk) branch(s *ast.BranchStmt, st flowState) {
	if s.Label != nil || (s.Tok != token.BREAK && s.Tok != token.CONTINUE) {
		return
	}
	for i := len(w.outs) - 1; i >= 0; i-- {
		out := w.outs[i]
		if s.Tok == token.BREAK {
			out.breaks = append(out.breaks, st)
			return
		}
		if out.loop {
			out.continues = append(out.continues, st)
			return
		}
	}
}

// enter runs body's statements from st with out as the innermost
// break/continue target.
func (w *flowWalk) enter(out *flowOut, body []ast.Stmt, st flowState) (flowState, bool) {
	w.outs = append(w.outs, out)
	st, terminated := w.stmts(body, st)
	w.outs = w.outs[:len(w.outs)-1]
	return st, terminated
}

// loop runs one iteration of body on a clone of st. The iteration ends by
// falling through or by continue (either way post runs next), or by
// break; iterationEnd sees each of those states beside the loop's entry
// state, and all of them join it — st itself stays in the join for the
// loop that runs zero times.
func (w *flowWalk) loop(body *ast.BlockStmt, post ast.Stmt, st flowState) flowState {
	out := &flowOut{loop: true}
	end, terminated := w.enter(out, body.List, st.clone())
	ends := out.continues
	if !terminated {
		ends = append(ends, end)
	}
	for _, e := range ends {
		w.simple(post, e)
	}
	ends = append(ends, out.breaks...)
	for _, e := range ends {
		w.a.iterationEnd(st, e, body)
	}
	for _, e := range ends {
		st.merge(e)
	}
	return st
}

// cases handles switch, type-switch and select bodies: every clause runs
// on a clone of the incoming state, and the states that run off a clause
// or break out of one merge — together with the incoming state when no
// default clause exists. When every clause terminates the incoming state
// passes through unchanged: without a default that is the path matching
// no clause, with one the code below is unreachable either way.
func (w *flowWalk) cases(body *ast.BlockStmt, st flowState) flowState {
	out := &flowOut{}
	hasDefault := false
	for _, c := range body.List {
		var comm ast.Stmt
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			hasDefault = hasDefault || c.List == nil
			for _, e := range c.List {
				w.a.expr(e, st)
			}
			stmts = c.Body
		case *ast.CommClause:
			hasDefault = hasDefault || c.Comm == nil
			comm, stmts = c.Comm, c.Body
		}
		caseSt := st.clone()
		w.simple(comm, caseSt)
		if end, terminated := w.enter(out, stmts, caseSt); !terminated {
			out.breaks = append(out.breaks, end)
		}
	}
	if len(out.breaks) == 0 {
		return st
	}
	joined := out.breaks[0]
	for _, o := range out.breaks[1:] {
		joined.merge(o)
	}
	if !hasDefault {
		joined.merge(st)
	}
	return joined
}
