package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Lockguard enforces the repo's mutex discipline: a struct field
// annotated with `// guarded by mu` or //hennlint:guarded-by(mu) may
// only be read while mu is held (shared or exclusive) and only written
// while mu is held exclusively. The guard is a sibling mutex field by
// default; //hennlint:guarded-by(Type.mu) names an external guard — the
// mutex field mu of some other struct Type (the scheduler's lock guards
// per-session turn state, the Registry's lock guards family state).
//
// Lock state is tracked flow-sensitively per function, on the walker the
// pairing engine also uses (flow.go): Lock/RLock add the mutex to the held set
// (exclusive/shared), Unlock/RUnlock remove it, a deferred unlock keeps
// it held through every return, and control-flow joins widen
// disagreeing states to "maybe held", which is deliberately not
// reported — the analyzer under-approximates so it stays silent on
// correct code and only reports provable violations. Function literals
// are analyzed as separate scopes: locks held where a closure is
// created demote to "maybe" inside it (the closure may run later,
// under or outside the lock).
//
// //hennlint:holds(mu) (or holds(Type.mu), comma-separated) on a
// function documents and assumes a lock the caller must already hold —
// the convention for *Locked helper methods. The analyzer also flags a
// function that provably returns while still holding a lock it
// acquired with no deferred unlock, the early-return-while-locked bug.
var Lockguard = &Analyzer{
	Name: "lockguard",
	Doc:  "annotated mutex-guarded fields must only be accessed with their lock held",
	Run:  runLockguard,
}

// guardRef names a mutex: the field `field` of the enclosing struct
// (typeName == ""), or of any value of the named struct type.
type guardRef struct {
	typeName string
	field    string
}

func (g guardRef) String() string {
	if g.typeName == "" {
		return g.field
	}
	return g.typeName + "." + g.field
}

// mutexTypeNames are the receiver type names that carry Lock/Unlock
// methods with locking semantics. Matching by name keeps fixtures
// self-contained, mirroring methodCall.
func isMutexTypeName(name string) bool {
	return name == "Mutex" || name == "RWMutex"
}

type lockMode int8

const (
	lockExcl lockMode = iota
	lockShared
	lockMaybe // held on some paths only, or demoted at a closure boundary
)

// heldLock is one mutex in the held set.
type heldLock struct {
	mode     lockMode
	deferred bool   // an unlock is deferred; held through every return
	annot    bool   // assumed via //hennlint:holds, not acquired here
	typeName string // named type of the mutex's owner ("" if none)
	field    string // mutex field or variable name
	name     string // display form of the lock expression, for messages
	pos      token.Pos
}

// lockFlow maps lock keys (exprKey of the owner + field name) to state.
type lockFlow map[string]*heldLock

func (st lockFlow) clone() lockFlow {
	out := make(lockFlow, len(st))
	for k, v := range st {
		c := *v
		out[k] = &c
	}
	return out
}

// merge joins two branch states in place into st. A lock held on only
// one arm, or with different modes, widens to maybe — definitely-held
// and definitely-unheld are the only states the checks act on.
func (st lockFlow) merge(other lockFlow) {
	for k, h := range st {
		o, ok := other[k]
		if !ok {
			h.mode = lockMaybe
			continue
		}
		if o.mode != h.mode {
			h.mode = lockMaybe
		}
		h.deferred = h.deferred || o.deferred
	}
	for k, o := range other {
		if _, ok := st[k]; !ok {
			c := *o
			c.mode = lockMaybe
			st[k] = &c
		}
	}
}

// demote returns a copy of st with every lock widened to maybe: the
// state handed to a closure body, which may run under the lock (a
// locked-region helper) or long after it was released (a pool task).
func (st lockFlow) demote() lockFlow {
	out := st.clone()
	for _, h := range out {
		h.mode = lockMaybe
	}
	return out
}

func runLockguard(p *Pass) error {
	g := &lockguardPass{
		p:        p,
		guarded:  map[*types.Var]guardRef{},
		reported: map[string]bool{},
	}
	g.collectGuardedFields()
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				g.analyzeFunc(d)
			case *ast.GenDecl:
				// Package-level function literals (var hooks).
				ast.Inspect(d, func(n ast.Node) bool {
					if fl, ok := n.(*ast.FuncLit); ok {
						flowBody(g, fl.Body, lockFlow{})
						return false
					}
					return true
				})
			}
		}
	}
	return nil
}

type lockguardPass struct {
	p       *Pass
	guarded map[*types.Var]guardRef
	// reported dedups diagnostics per file:line:field so one statement
	// touching a field on both sides of `=` reports once.
	reported map[string]bool
}

// collectGuardedFields scans every struct declaration for guarded-field
// annotations, in either form, and validates that the named guard
// resolves to a mutex.
func (g *lockguardPass) collectGuardedFields() {
	for _, f := range g.p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				ref, ok := g.fieldGuard(field)
				if !ok {
					continue
				}
				if !g.validateGuard(st, ref, field.Pos()) {
					continue
				}
				for _, name := range field.Names {
					if v, ok := g.p.Info.Defs[name].(*types.Var); ok {
						g.guarded[v] = ref
					}
				}
			}
			return true
		})
	}
}

// fieldGuard extracts a guard annotation from a struct field's doc or
// trailing comment: //hennlint:guarded-by(ref) or a comment containing
// the phrase "guarded by ref".
func (g *lockguardPass) fieldGuard(field *ast.Field) (guardRef, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if arg, ok := directiveArg(cg, "guarded-by"); ok {
			ref, err := parseGuardRef(arg)
			if err != "" {
				g.p.Reportf(field.Pos(), "malformed guarded-by annotation %q: %s", arg, err)
				continue
			}
			return ref, true
		}
		for _, c := range cg.List {
			text := c.Text
			i := strings.Index(text, "guarded by ")
			if i < 0 {
				continue
			}
			word := text[i+len("guarded by "):]
			if j := strings.IndexAny(word, " \t,;"); j >= 0 {
				word = word[:j]
			}
			word = strings.TrimRight(word, ".")
			ref, err := parseGuardRef(word)
			if err != "" {
				g.p.Reportf(field.Pos(), "malformed `guarded by` comment: %q %s (write `guarded by mu` or `guarded by Type.mu`)", word, err)
				continue
			}
			return ref, true
		}
	}
	return guardRef{}, false
}

// parseGuardRef parses "mu" or "Type.mu"; err is "" on success.
func parseGuardRef(s string) (guardRef, string) {
	parts := strings.Split(s, ".")
	switch {
	case len(parts) == 1 && validGoIdent(parts[0]):
		return guardRef{field: parts[0]}, ""
	case len(parts) == 2 && validGoIdent(parts[0]) && validGoIdent(parts[1]):
		return guardRef{typeName: parts[0], field: parts[1]}, ""
	}
	return guardRef{}, "is not an identifier or Type.field pair"
}

func validGoIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// validateGuard checks that the referenced guard exists and is a mutex:
// a sibling field of the annotated struct, or a field of the named
// same-package type.
func (g *lockguardPass) validateGuard(st *ast.StructType, ref guardRef, pos token.Pos) bool {
	if ref.typeName == "" {
		for _, f := range st.Fields.List {
			for _, name := range f.Names {
				if name.Name != ref.field {
					continue
				}
				if v, ok := g.p.Info.Defs[name].(*types.Var); ok && isMutexTypeName(namedTypeName(v.Type())) {
					return true
				}
				g.p.Reportf(pos, "guard %s is not a sync.Mutex or sync.RWMutex field", ref)
				return false
			}
		}
		g.p.Reportf(pos, "guard %s does not name a sibling field of this struct", ref)
		return false
	}
	obj := g.p.Pkg.Scope().Lookup(ref.typeName)
	if obj == nil {
		g.p.Reportf(pos, "guard %s: type %s is not declared in this package", ref, ref.typeName)
		return false
	}
	strct, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		g.p.Reportf(pos, "guard %s: %s is not a struct type", ref, ref.typeName)
		return false
	}
	for i := 0; i < strct.NumFields(); i++ {
		f := strct.Field(i)
		if f.Name() == ref.field {
			if isMutexTypeName(namedTypeName(f.Type())) {
				return true
			}
			g.p.Reportf(pos, "guard %s is not a sync.Mutex or sync.RWMutex field", ref)
			return false
		}
	}
	g.p.Reportf(pos, "guard %s: %s has no field %s", ref, ref.typeName, ref.field)
	return false
}

// analyzeFunc analyzes one declared function, seeding the held set from
// any //hennlint:holds annotation.
func (g *lockguardPass) analyzeFunc(fd *ast.FuncDecl) {
	st := lockFlow{}
	if arg, ok := directiveArg(fd.Doc, "holds"); ok {
		for _, part := range strings.Split(arg, ",") {
			ref, err := parseGuardRef(strings.TrimSpace(part))
			if err != "" {
				g.p.Reportf(fd.Pos(), "malformed holds annotation %q: %s", part, err)
				continue
			}
			g.assumeHeld(fd, ref, st)
		}
	}
	flowBody(g, fd.Body, st)
}

// assumeHeld seeds st with an annotation-asserted lock. A sibling-form
// ref binds to the receiver; Type.field form matches any owner of that
// type, so it also works for free functions (scheduler's eligible).
func (g *lockguardPass) assumeHeld(fd *ast.FuncDecl, ref guardRef, st lockFlow) {
	h := &heldLock{mode: lockExcl, annot: true, field: ref.field, name: ref.String(), pos: fd.Pos()}
	if ref.typeName != "" {
		h.typeName = ref.typeName
		st["annot:"+ref.String()] = h
		return
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		g.p.Reportf(fd.Pos(), "holds(%s) needs a named receiver; use holds(Type.%s) on a function", ref, ref.field)
		return
	}
	recv := fd.Recv.List[0].Names[0]
	h.typeName = namedTypeName(g.p.Info.TypeOf(recv))
	h.name = recv.Name + "." + ref.field
	st[exprKey(g.p.Info, recv)+"."+ref.field] = h
}

// leaf applies one plain statement: its reads and writes are checked
// against st, its lock calls change st. Only a panic ends the path.
func (g *lockguardPass) leaf(s ast.Stmt, st lockFlow) (terminated bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			g.expr(r, st)
		}
		for _, l := range s.Lhs {
			g.handleWrite(l, st)
		}

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						g.expr(v, st)
					}
				}
			}
		}

	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if isPanicCall(g.p.Info, call) {
				for _, arg := range call.Args {
					g.expr(arg, st)
				}
				return true // panicking while holding a lock is not a leak
			}
			g.handleCall(call, st)
			return false
		}
		g.expr(s.X, st)

	case *ast.DeferStmt:
		g.handleDefer(s.Call, st)

	case *ast.GoStmt:
		// The call runs later on another goroutine: evaluate the
		// arguments now, analyze a literal body as a detached scope.
		for _, arg := range s.Call.Args {
			g.expr(arg, st)
		}
		g.expr(s.Call.Fun, st)

	case *ast.SendStmt:
		g.expr(s.Chan, st)
		g.expr(s.Value, st)

	case *ast.IncDecStmt:
		g.handleWrite(s.X, st)
	}
	return false
}

// iterationEnd: a lock held across an iteration boundary is the join's
// business, not a finding.
func (g *lockguardPass) iterationEnd(pre, end lockFlow, body *ast.BlockStmt) {}

// handleCall applies a statement-level call's lock effects, or scans it
// for guarded accesses.
func (g *lockguardPass) handleCall(call *ast.CallExpr, st lockFlow) {
	if op, ok := matchLockOp(g.p.Info, call); ok {
		if !op.acquire {
			delete(st, op.key)
			return
		}
		mode := lockExcl
		if op.shared {
			mode = lockShared
		}
		st[op.key] = &heldLock{mode: mode, typeName: op.typeName, field: op.field, name: op.name, pos: call.Pos()}
		return
	}
	// delete(x.f, k) and close(x.f) mutate the container: writes.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(call.Args) > 0 {
		if _, isBuiltin := g.p.Info.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "delete" || id.Name == "close") {
			g.handleWrite(call.Args[0], st)
			for _, arg := range call.Args[1:] {
				g.expr(arg, st)
			}
			return
		}
	}
	g.expr(call, st)
}

// handleDefer registers deferred unlocks: a deferred unlock keeps its
// lock held through every return, which is the correct discipline, so
// the lock is exempt from the return-while-locked check.
func (g *lockguardPass) handleDefer(call *ast.CallExpr, st lockFlow) {
	if op, ok := matchLockOp(g.p.Info, call); ok {
		if h := st[op.key]; h != nil && !op.acquire {
			h.deferred = true
		}
		return
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// defer func() { ... mu.Unlock() ... }(): the closure owns the
		// unlock; mark the locks it releases as deferred, then analyze
		// its body as a demoted scope.
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op, ok := matchLockOp(g.p.Info, inner); ok && !op.acquire {
				if h := st[op.key]; h != nil {
					h.deferred = true
				}
			}
			return true
		})
		flowBody(g, fl.Body, st.demote())
		return
	}
	for _, arg := range call.Args {
		g.expr(arg, st)
	}
	g.expr(call.Fun, st)
}

// lockOp describes one mutex method call, naming the mutex both ways
// its clients need: lockguard by instance (which owner's mu), lockorder
// by class (which type's mu).
type lockOp struct {
	acquire bool // Lock or RLock, as opposed to Unlock or RUnlock
	shared  bool // RLock

	// The instance: key is exprKey of the owner plus the field name;
	// typeName (the owner's named type, "" if none) and field serve
	// lockguard's type-level fallback; name is the lock expression as
	// written, for messages.
	key, typeName, field, name string

	// The class within its package: "Type.field", or the name of a
	// package-level variable, or — local set — an expression that only
	// means something inside the enclosing function.
	class string
	local bool
}

// matchLockOp matches mu.Lock()/Unlock()/RLock()/RUnlock() where mu is a
// field selector (owner.mu), a plain mutex variable or a value embedding
// the mutex, and the method's receiver type is named Mutex or RWMutex.
func matchLockOp(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock":
		op.acquire = true
	case "RLock":
		op.acquire, op.shared = true, true
	case "Unlock", "RUnlock":
	default:
		return lockOp{}, false
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return lockOp{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isMutexTypeName(namedTypeName(sig.Recv().Type())) {
		return lockOp{}, false
	}
	owner := ast.Unparen(sel.X)
	op.name = types.ExprString(sel.X)
	op.key = exprKey(info, owner)
	op.class, op.local = types.ExprString(owner), true
	switch mu := owner.(type) {
	case *ast.SelectorExpr:
		op.key = exprKey(info, mu.X) + "." + mu.Sel.Name
		op.field = mu.Sel.Name
		op.typeName = namedTypeName(info.TypeOf(mu.X))
		if op.typeName != "" {
			op.class, op.local = op.typeName+"."+op.field, false
		}
	case *ast.Ident:
		op.field = mu.Name
		if obj := info.ObjectOf(mu); obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			op.local = false
		}
	}
	// t.Lock() on a type embedding the mutex: the owner expression's type
	// is the embedding struct, not the mutex itself.
	if tn := namedTypeName(info.TypeOf(owner)); tn != "" && !isMutexTypeName(tn) {
		op.class, op.local = tn+"."+namedTypeName(sig.Recv().Type()), false
	}
	return op, true
}

// handleWrite checks the target of an assignment, ++/--, delete or
// close: the root field selector (through indexing and dereferences) is
// a write; everything nested under it is read.
func (g *lockguardPass) handleWrite(l ast.Expr, st lockFlow) {
	e := ast.Unparen(l)
	for {
		switch v := e.(type) {
		case *ast.IndexExpr:
			g.expr(v.Index, st)
			e = ast.Unparen(v.X)
			continue
		case *ast.StarExpr:
			e = ast.Unparen(v.X)
			continue
		}
		break
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		g.checkAccess(sel, st, true)
		g.expr(sel.X, st)
		return
	}
	if _, ok := e.(*ast.Ident); ok {
		return
	}
	g.expr(e, st)
}

// expr checks every guarded-field selection inside e as a read.
// Closure bodies are analyzed as separate scopes with all locks demoted
// to maybe; taking a guarded field's address counts as a write.
func (g *lockguardPass) expr(e ast.Expr, st lockFlow) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			flowBody(g, n.Body, st.demote())
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					g.checkAccess(sel, st, true)
					g.expr(sel.X, st)
					return false
				}
			}
		case *ast.SelectorExpr:
			g.checkAccess(n, st, false)
		}
		return true
	})
}

// checkAccess reports a guarded-field access whose guard is provably
// not held (or only read-held, for writes).
func (g *lockguardPass) checkAccess(s *ast.SelectorExpr, st lockFlow, write bool) {
	v, ok := g.p.Info.Uses[s.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	ref, guarded := g.guarded[v]
	if !guarded {
		return
	}
	h := g.findHeld(s, ref, st)
	pos := g.p.Fset.Position(s.Sel.Pos())
	dedup := pos.Filename + ":" + strconv.Itoa(pos.Line) + ":" + v.Name()
	if h == nil {
		if g.reported[dedup] {
			return
		}
		g.reported[dedup] = true
		g.p.Reportf(s.Sel.Pos(), "%s is guarded by %s but accessed without holding it", types.ExprString(s), ref)
		return
	}
	if write && h.mode == lockShared {
		if g.reported[dedup] {
			return
		}
		g.reported[dedup] = true
		g.p.Reportf(s.Sel.Pos(), "write to %s needs %s held exclusively, but only the read lock is held (RLock at %s)",
			types.ExprString(s), ref, g.p.Fset.Position(h.pos))
	}
}

// findHeld looks for a held lock satisfying ref for the access base: an
// exact owner match for sibling guards, otherwise any held lock on the
// right owner type with the right field — the type-level fallback keeps
// aliased owners (sched := s.sched) from false-positive reporting.
func (g *lockguardPass) findHeld(s *ast.SelectorExpr, ref guardRef, st lockFlow) *heldLock {
	wantType := ref.typeName
	if wantType == "" {
		if h := st[exprKey(g.p.Info, s.X)+"."+ref.field]; h != nil {
			return h
		}
		wantType = namedTypeName(g.p.Info.TypeOf(s.X))
		if wantType == "" {
			return nil
		}
	}
	var best *heldLock
	for _, h := range st {
		if h.typeName != wantType || h.field != ref.field {
			continue
		}
		if best == nil || h.mode < best.mode { // excl < shared < maybe
			best = h
		}
	}
	return best
}

// exit reports locks provably still held at a return (or at the end of
// the function body) that were acquired in this function with no
// deferred unlock: the early-return-while-locked bug.
func (g *lockguardPass) exit(st lockFlow, pos token.Pos, _ []ast.Expr) {
	for _, h := range st {
		if h.mode == lockMaybe || h.deferred || h.annot {
			continue
		}
		g.p.Reportf(pos, "returns while %s (locked at %s) is still held and no unlock is deferred",
			h.name, g.p.Fset.Position(h.pos))
	}
}

func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
