package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lockorder is the whole-program deadlock detector. Every mutex is
// abstracted to its lock class — the named type and field that hold it
// (registry.Registry.mu), a package-level variable, or a function-local
// name — and every acquires-while-holding pair observed anywhere in the
// program becomes a directed edge in one global lock-order graph:
// flow-sensitive tracking of the held set inside each function (Lock /
// RLock acquire, Unlock / RUnlock release, deferred unlocks hold to
// function end) combined with per-function transitive may-acquire
// summaries over the shared call graph, computed to a cycle-aware
// fixpoint, so an edge forms when lock B is taken while A is held even
// when the acquisition is buried several calls deep. A cycle in the
// graph is a potential deadlock and is reported once with the full
// witness path — which function holds what, where, and through which
// call chain the inner acquisition happens.
//
// //hennlint:lock-order(A.mu < B.mu) pins the canonical order: the pin
// adds its edge to the graph (so a contradicting observation completes
// a reportable cycle even before a second thread exists in the code)
// and any observed B-held-acquiring-A pair is reported directly as a
// pin violation. //hennlint:lock-order-ok on (or above) an acquire or
// call line audits that site out of the graph.
//
// Deliberate under-approximations, so the analyzer stays silent on
// correct code: goroutine spawns do not thread the spawner's held set
// (a `go` call runs on its own stack), function literals that are not
// invoked where they are written are analyzed with an empty held set,
// and same-class pairs (two instances of one type locked together) are
// skipped — class-level analysis cannot order instances.
var Lockorder = &Analyzer{
	Name:       "lockorder",
	Doc:        "the global mutex acquisition order must stay acyclic (potential deadlocks)",
	RunProgram: runLockorder,
}

// lockClass names one mutex class: "pkg.Type.field" for a mutex field
// of a named type, "pkg.var" for a package-level mutex variable,
// "pkg.Func.name" for function-local mutexes.
type lockClass = string

// transStep records how a function comes to acquire a class: directly
// at pos (via == nil), or by calling via at pos.
type transStep struct {
	pos token.Pos
	via *types.Func
}

// lockOrderEdge is one observed or pinned from-before-to pair.
type lockOrderEdge struct {
	from, to lockClass
	pos      token.Pos // acquire or call site (pin comment for pinned edges)
	witness  string    // human-readable justification
	pinned   bool
}

// lockOrderState is the per-run builder shared by the analyzer and the
// -lockgraph DOT emitter.
type lockOrderState struct {
	prog      *Program
	summaries map[*types.Func]map[lockClass]transStep
	edges     map[[2]string]*lockOrderEdge // first witness wins
	pins      []*lockOrderEdge
	malformed []lockOrderDiag
}

type lockOrderDiag struct {
	pos token.Pos
	msg string
}

func runLockorder(pp *ProgramPass) error {
	st := buildLockOrder(pp.Prog)
	for _, d := range st.malformed {
		pp.Reportf(d.pos, "%s", d.msg)
	}
	// Pin violations: an observed edge opposite to a pinned order.
	pinned := map[[2]string]*lockOrderEdge{}
	for _, p := range st.pins {
		pinned[[2]string{p.from, p.to}] = p
	}
	violated := map[[2]string]bool{}
	for key, e := range st.edges {
		if e.pinned {
			continue
		}
		if p, ok := pinned[[2]string{e.to, e.from}]; ok {
			pp.Reportf(e.pos, "%s is acquired while %s is held (%s), but the pinned lock order is %s < %s (%s)",
				e.to, e.from, e.witness, p.from, p.to, st.prog.Fset.Position(p.pos))
			violated[key] = true
		}
	}
	// Cycle detection over the remaining graph (pins included: two
	// contradicting pins, or a pin plus an observed edge, still cycle).
	adj := map[string][]*lockOrderEdge{}
	for key, e := range st.edges {
		if violated[key] {
			continue
		}
		adj[e.from] = append(adj[e.from], e)
	}
	for _, out := range adj {
		sort.Slice(out, func(i, j int) bool { return out[i].to < out[j].to })
	}
	for _, cycle := range findLockCycles(adj) {
		pos := cycle[0].pos
		var names, wits []string
		for _, e := range cycle {
			if e.pos < pos {
				pos = e.pos
			}
			names = append(names, e.from)
			wits = append(wits, fmt.Sprintf("%s -> %s: %s", e.from, e.to, e.witness))
		}
		names = append(names, cycle[0].from)
		pp.Reportf(pos, "lock-order cycle (potential deadlock): %s; %s (break the cycle, pin an order with %slock-order(a<b), or audit a site with %slock-order-ok)",
			strings.Join(names, " -> "), strings.Join(wits, "; "), directivePrefix, directivePrefix)
	}
	return nil
}

// buildLockOrder computes summaries, scans pins and escapes, and
// assembles the global edge set.
func buildLockOrder(prog *Program) *lockOrderState {
	st := &lockOrderState{
		prog:      prog,
		summaries: map[*types.Func]map[lockClass]transStep{},
		edges:     map[[2]string]*lockOrderEdge{},
	}
	// Per-function transitive may-acquire summaries, to a fixpoint so
	// recursion converges.
	prog.Fixpoint(func(n *FuncNode) bool {
		sum := st.summaries[n.Fn]
		if sum == nil {
			sum = map[lockClass]transStep{}
			st.summaries[n.Fn] = sum
		}
		changed := false
		for _, site := range n.Calls {
			if site.Go || site.InClosure {
				continue
			}
			if op, ok := matchLockOp(n.Pkg.Info, site.Call); ok {
				class := lockClassOf(n.Pkg, funcDisplayName(n.Decl), op)
				if _, have := sum[class]; op.acquire && !have {
					sum[class] = transStep{pos: site.Call.Pos()}
					changed = true
				}
				continue
			}
			for _, callee := range site.Callees {
				for c := range st.summaries[callee] {
					if _, have := sum[c]; !have {
						sum[c] = transStep{pos: site.Call.Pos(), via: callee}
						changed = true
					}
				}
			}
		}
		return changed
	})
	st.scanPins()
	for _, n := range prog.Funcs() {
		w := &lockOrderWalk{st: st, node: n, fnName: funcDisplayName(n.Decl), okLines: lockOrderOKLines(n.Pkg, n.Decl)}
		flowBody(w, n.Decl.Body, heldSet{})
	}
	return st
}

// funcDisplayName renders "Recv.Name" or "Name" for witnesses.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if s, ok := t.(*ast.StarExpr); ok {
			t = s.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// scanPins collects //hennlint:lock-order(a<b) pins from every file.
// Unqualified names (Type.field or var) resolve in the declaring file's
// package; a fully qualified pkg.Type.field passes through.
func (st *lockOrderState) scanPins() {
	for _, pkg := range st.prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, directivePrefix+"lock-order(")
					if !ok {
						continue
					}
					i := strings.IndexByte(rest, ')')
					if i < 0 {
						st.malformed = append(st.malformed, lockOrderDiag{c.Pos(),
							fmt.Sprintf("malformed %slock-order directive: missing ')'", directivePrefix)})
						continue
					}
					arg := rest[:i]
					parts := strings.Split(arg, "<")
					if len(parts) != 2 {
						st.malformed = append(st.malformed, lockOrderDiag{c.Pos(),
							fmt.Sprintf("malformed %slock-order argument %q: want \"a < b\"", directivePrefix, arg)})
						continue
					}
					from := qualifyPinName(strings.TrimSpace(parts[0]), pkg.Types.Name())
					to := qualifyPinName(strings.TrimSpace(parts[1]), pkg.Types.Name())
					if from == "" || to == "" || from == to {
						st.malformed = append(st.malformed, lockOrderDiag{c.Pos(),
							fmt.Sprintf("malformed %slock-order argument %q: names must be distinct Type.field, var, or pkg.Type.field", directivePrefix, arg)})
						continue
					}
					pinPos := pkg.Fset.Position(c.Pos())
					e := &lockOrderEdge{from: from, to: to, pos: c.Pos(), pinned: true,
						witness: fmt.Sprintf("pinned at %s:%d", shortFilename(pinPos.Filename), pinPos.Line)}
					st.pins = append(st.pins, e)
					if _, have := st.edges[[2]string{from, to}]; !have {
						st.edges[[2]string{from, to}] = e
					}
				}
			}
		}
	}
}

// qualifyPinName turns a pin operand into a lock class, prefixing the
// declaring package's name when the operand is not already qualified.
func qualifyPinName(s, pkgName string) string {
	if s == "" {
		return ""
	}
	switch strings.Count(s, ".") {
	case 0, 1: // "mu" or "Type.mu"
		return pkgName + "." + s
	case 2: // "pkg.Type.mu"
		return s
	}
	return ""
}

// lockOrderOKLines collects the //hennlint:lock-order-ok lines of the
// file containing fd (suppression is line-keyed, so the file scan is
// what matters).
func lockOrderOKLines(pkg *Package, fd *ast.FuncDecl) map[int]bool {
	for _, f := range pkg.Files {
		if f.Pos() <= fd.Pos() && fd.End() <= f.End() {
			return directiveLines(pkg.Fset, f, "lock-order-ok")
		}
	}
	return nil
}

// addEdge records one observed pair unless the site is audited away.
func (st *lockOrderState) addEdge(from, to lockClass, pos token.Pos, witness string, okLines map[int]bool) {
	if from == to {
		return
	}
	if okLines[st.prog.Fset.Position(pos).Line] {
		return
	}
	key := [2]string{from, to}
	prev, have := st.edges[key]
	if !have {
		st.edges[key] = &lockOrderEdge{from: from, to: to, pos: pos, witness: witness}
		return
	}
	// An observation along a pinned order upgrades the pin placeholder's
	// witness (it stays dashed in the DOT: the pin is still the source of
	// truth); between observations the first witness wins.
	if prev.pinned && strings.HasPrefix(prev.witness, "pinned at ") {
		prev.witness = witness
	}
}

// chain renders the call path by which fn comes to acquire class.
func (st *lockOrderState) chain(fn *types.Func, class lockClass) string {
	var hops []string
	seen := map[*types.Func]bool{}
	for fn != nil && !seen[fn] {
		seen[fn] = true
		hops = append(hops, fn.Name())
		step, ok := st.summaries[fn][class]
		if !ok {
			break
		}
		if step.via == nil {
			return fmt.Sprintf("%s locks it at %s", strings.Join(hops, " -> "), st.prog.Fset.Position(step.pos))
		}
		fn = step.via
	}
	return strings.Join(hops, " -> ")
}

// heldSet maps held lock classes to their acquisition site.
type heldSet map[lockClass]token.Pos

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// merge is set union, keeping the earliest acquisition site —
// path-exists semantics: a lock held on either arm of a branch is held
// on some path through the join.
func (h heldSet) merge(other heldSet) {
	for k, v := range other {
		if cur, ok := h[k]; !ok || v < cur {
			h[k] = v
		}
	}
}

// lockOrderWalk is the flow-sensitive held-set walk over one function.
type lockOrderWalk struct {
	st      *lockOrderState
	node    *FuncNode
	fnName  string
	okLines map[int]bool
}

// leaf runs the calls of one plain statement against the held set.
func (w *lockOrderWalk) leaf(s ast.Stmt, held heldSet) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.IncDecStmt:
		w.expr(s.X, held)
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held through the rest of the
		// body (that is the point); any other deferred call is treated
		// as running with the current held set.
		if op, ok := matchLockOp(w.node.Pkg.Info, s.Call); ok && !op.acquire {
			break
		}
		w.expr(s.Call, held)
	case *ast.GoStmt:
		// The spawned call runs on its own stack: arguments are
		// evaluated here, the call itself is not.
		for _, arg := range s.Call.Args {
			w.expr(arg, held)
		}
		if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			flowBody(w, fl.Body, heldSet{})
		}
	}
	return false
}

// Nothing is checked where a function returns or an iteration ends: an
// edge forms at the acquisition, and a lock still held is lockguard's.
func (w *lockOrderWalk) exit(heldSet, token.Pos, []ast.Expr)             {}
func (w *lockOrderWalk) iterationEnd(pre, end heldSet, _ *ast.BlockStmt) {}

// expr processes every call inside e, in evaluation order, against the
// current held set.
func (w *lockOrderWalk) expr(e ast.Expr, held heldSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.call(n, held)
			return false
		case *ast.FuncLit:
			// Not invoked here: the body runs with an unknown held set;
			// analyze it with an empty one (under-approximation).
			flowBody(w, n.Body, heldSet{})
			return false
		}
		return true
	})
}

// call handles one call: a lock acquire forms edges from everything
// held and joins the held set, a release leaves it, and any other call
// forms edges from everything held to everything the callee may
// transitively acquire.
func (w *lockOrderWalk) call(call *ast.CallExpr, held heldSet) {
	// Arguments and receiver run first, under the current held set.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.expr(sel.X, held)
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately invoked: the body runs right here, and what it
		// leaves held stays held.
		for _, arg := range call.Args {
			w.expr(arg, held)
		}
		after := flowBody(w, fl.Body, held.clone())
		clear(held)
		held.merge(after)
		return
	}
	for _, arg := range call.Args {
		w.expr(arg, held)
	}
	if op, ok := matchLockOp(w.node.Pkg.Info, call); ok {
		class := lockClassOf(w.node.Pkg, w.fnName, op)
		if !op.acquire {
			delete(held, class)
			return
		}
		for from, fpos := range held {
			w.st.addEdge(from, class, call.Pos(),
				fmt.Sprintf("%s locks %s at %s while holding %s (since %s)",
					w.fnName, class, w.pos(call.Pos()), from, w.pos(fpos)),
				w.okLines)
		}
		if _, have := held[class]; !have {
			held[class] = call.Pos()
		}
		return
	}
	if len(held) == 0 {
		return
	}
	callees, _ := w.st.prog.resolveCall(w.node.Pkg.Info, call)
	for _, callee := range callees {
		for class := range w.st.summaries[callee] {
			for from, fpos := range held {
				w.st.addEdge(from, class, call.Pos(),
					fmt.Sprintf("%s holds %s (since %s) and calls %s at %s; %s",
						w.fnName, from, w.pos(fpos), callee.Name(), w.pos(call.Pos()),
						w.st.chain(callee, class)),
					w.okLines)
			}
		}
	}
}

func (w *lockOrderWalk) pos(p token.Pos) string {
	pos := w.st.prog.Fset.Position(p)
	return fmt.Sprintf("%s:%d", shortFilename(pos.Filename), pos.Line)
}

// shortFilename trims the path down to its last two elements so witness
// strings stay readable.
func shortFilename(name string) string {
	parts := strings.Split(name, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/")
}

// LockGraphDOT builds the whole-program lock-order graph over pkgs and
// renders it as a Graphviz DOT document: one node per lock class, one
// edge per observed acquires-while-holding pair (labeled with its
// witness), pinned edges dashed. Backs `hennlint -lockgraph`.
func LockGraphDOT(pkgs []*Package) string {
	st := buildLockOrder(NewProgram(pkgs))
	keys := make([][2]string, 0, len(st.edges))
	for k := range st.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	classes := map[string]bool{}
	for _, k := range keys {
		classes[k[0]] = true
		classes[k[1]] = true
	}
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)

	var b strings.Builder
	b.WriteString("digraph lockorder {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	for _, n := range names {
		fmt.Fprintf(&b, "  %q;\n", n)
	}
	for _, k := range keys {
		e := st.edges[k]
		attrs := fmt.Sprintf("label=%q", shortWitness(e.witness))
		if e.pinned {
			attrs += ", style=dashed"
		}
		fmt.Fprintf(&b, "  %q -> %q [%s];\n", e.from, e.to, attrs)
	}
	b.WriteString("}\n")
	return b.String()
}

// shortWitness keeps DOT edge labels to the locating core of a witness.
func shortWitness(w string) string {
	if i := strings.Index(w, " while holding"); i > 0 {
		return w[:i]
	}
	if i := strings.Index(w, " and calls "); i > 0 {
		rest := w[i+len(" and calls "):]
		if j := strings.Index(rest, ";"); j > 0 {
			rest = rest[:j]
		}
		return "via " + rest
	}
	return w
}

// lockClassOf scopes the class of a lock call (matchLockOp, shared with
// lockguard) to the program: the package's name in front, and for a
// function-local mutex the function's too.
func lockClassOf(pkg *Package, fnName string, op lockOp) lockClass {
	if op.local {
		return pkg.Types.Name() + "." + fnName + "." + op.class
	}
	return pkg.Types.Name() + "." + op.class
}

// findLockCycles returns one representative cycle (as its edge list)
// per strongly connected component with a cycle. Deterministic: nodes
// and out-edges are visited in sorted order.
func findLockCycles(adj map[string][]*lockOrderEdge) [][]*lockOrderEdge {
	// Tarjan SCC, iterative enough for our graph sizes via recursion.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var counter int
	comp := map[string]int{} // node -> SCC id
	var compCount int

	nodes := make([]string, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	for _, es := range adj {
		for _, e := range es {
			if _, ok := adj[e.to]; !ok {
				nodes = append(nodes, e.to)
				adj[e.to] = nil
			}
		}
	}
	sort.Strings(nodes)

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range adj[v] {
			w := e.to
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				n := len(stack) - 1
				w := stack[n]
				stack = stack[:n]
				onStack[w] = false
				comp[w] = compCount
				if w == v {
					break
				}
			}
			compCount++
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	// For each SCC with more than one node, walk a cycle from its
	// smallest member using only intra-SCC edges.
	members := map[int][]string{}
	for n, c := range comp {
		members[c] = append(members[c], n)
	}
	compIDs := make([]int, 0, len(members))
	for c := range members {
		compIDs = append(compIDs, c)
	}
	sort.Ints(compIDs)
	var cycles [][]*lockOrderEdge
	for _, c := range compIDs {
		ms := members[c]
		if len(ms) < 2 {
			continue
		}
		sort.Strings(ms)
		start := ms[0]
		// Shortest cycle through start: BFS over intra-SCC edges back
		// to start, recording the edge that first reached each node.
		parent := map[string]*lockOrderEdge{}
		queue := []string{start}
		var closing *lockOrderEdge
	bfs:
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range adj[cur] {
				if comp[e.to] != c {
					continue
				}
				if e.to == start {
					closing = e
					break bfs
				}
				if _, seen := parent[e.to]; !seen {
					parent[e.to] = e
					queue = append(queue, e.to)
				}
			}
		}
		if closing == nil {
			continue
		}
		path := []*lockOrderEdge{closing}
		for cur := closing.from; cur != start; {
			e := parent[cur]
			path = append([]*lockOrderEdge{e}, path...)
			cur = e.from
		}
		cycles = append(cycles, path)
	}
	return cycles
}
