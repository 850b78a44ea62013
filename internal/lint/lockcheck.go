package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// analyzerLockCheck enforces the mutex discipline of the concurrent
// host-side packages (Config.LockCheckPkgs):
//
//   - a field annotated //xui:guardedby mu may only be accessed while the
//     named sibling mutex is held on that path through the function
//     (tracked per function with a lockset walk: Lock/RLock add, Unlock/
//     RUnlock remove, defer Unlock holds to function end, branches fork a
//     copy of the set);
//   - while any lock is held, no blocking operation may run: a channel
//     send/receive, a select without a default, range over a channel,
//     sync.WaitGroup.Wait / sync.Cond.Wait / time.Sleep, or a call to a
//     module function whose call tree contains one of those (the
//     interprocedural mayBlock summary, blamed with the call path).
//
// Mutexes are identified textually by receiver expression ("s.mu",
// "panicMu"), which is exact within a function — the granularity the
// lockset walk runs at. Function literals are analyzed with a fresh,
// empty lockset: they may run on another goroutine or after the caller
// returned, so they must do their own locking. Findings are waivable with
// //xui:lockok <reason>.
func analyzerLockCheck() *Analyzer {
	return &Analyzer{
		Name: "lockcheck",
		Doc:  "enforce //xui:guardedby field access under the mutex and no blocking calls while a lock is held",
		run:  runLockCheck,
	}
}

func runLockCheck(s *Suite, p *Package, report func(pos token.Pos, msg string, path ...Frame)) {
	if !matchPkg(p.Path, s.Cfg.LockCheckPkgs) {
		return
	}
	w := &lockWalker{
		s: s, p: p, g: s.Graph(),
		blockFacts: s.mayBlockFacts(),
		seen:       map[string]bool{},
		report:     report,
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w.stmts(fd.Body.List, map[string]bool{})
			}
		}
	}
}

// mayBlockFacts lazily computes, per function, whether its call tree
// contains a blocking operation, following direct and func-value edges but
// not go statements (a spawned goroutine does not block its spawner).
func (s *Suite) mayBlockFacts() map[*Node]*reachFact {
	if s.blockFacts == nil {
		g := s.Graph()
		s.blockFacts = g.reach(
			func(e *Edge) bool { return !e.GoStmt },
			func(n *Node) (string, token.Position, bool) {
				return ownBlocking(n)
			},
		)
	}
	return s.blockFacts
}

// ownBlocking scans one function body (nested literals excluded — they are
// their own nodes) for a blocking operation. Send/receive operations that
// are the communication clause of a select are exempt: the select decides
// whether they block, and a select with a default never does.
func ownBlocking(n *Node) (string, token.Position, bool) {
	p := n.Pkg
	inComm := map[ast.Node]bool{}
	ast.Inspect(n.Body(), func(node ast.Node) bool {
		if node != n.Body() {
			if _, ok := node.(*ast.FuncLit); ok {
				return false
			}
		}
		sel, ok := node.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cc := range sel.Body.List {
			if comm := cc.(*ast.CommClause).Comm; comm != nil {
				ast.Inspect(comm, func(x ast.Node) bool {
					if x != nil {
						inComm[x] = true
					}
					return true
				})
			}
		}
		return true
	})
	var desc string
	var pos token.Pos
	found := func(d string, at token.Pos) {
		if desc == "" {
			desc, pos = d, at
		}
	}
	ast.Inspect(n.Body(), func(node ast.Node) bool {
		if desc != "" {
			return false
		}
		if node != n.Body() {
			if _, ok := node.(*ast.FuncLit); ok {
				return false
			}
		}
		switch x := node.(type) {
		case *ast.SendStmt:
			if !inComm[x] {
				found("channel send", x.Pos())
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !inComm[x] {
				found("channel receive", x.Pos())
			}
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				found("select without default", x.Pos())
			}
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found("range over channel", x.Pos())
				}
			}
		case *ast.CallExpr:
			if d, ok := stdBlockingCall(p, x); ok {
				found(d, x.Pos())
			}
		}
		return true
	})
	if desc == "" {
		return "", token.Position{}, false
	}
	return desc, p.Fset.Position(pos), true
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, cc := range sel.Body.List {
		if cc.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// stdBlockingCall recognizes the standard-library blocking calls the
// summary cannot see through: sync.WaitGroup.Wait, sync.Cond.Wait, and
// time.Sleep.
func stdBlockingCall(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	switch {
	case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
		return "time.Sleep", true
	case fn.Pkg().Path() == "sync" && fn.Name() == "Wait":
		recv := fn.Type().(*types.Signature).Recv()
		if recv != nil {
			t := strings.TrimPrefix(recv.Type().String(), "*")
			if t == "sync.WaitGroup" || t == "sync.Cond" {
				return t + ".Wait", true
			}
		}
	}
	return "", false
}

// lockWalker tracks the held lockset through one function's statements.
type lockWalker struct {
	s          *Suite
	p          *Package
	g          *CallGraph
	blockFacts map[*Node]*reachFact
	seen       map[string]bool
	report     func(pos token.Pos, msg string, path ...Frame)
}

func (w *lockWalker) emit(pos token.Pos, msg string, path ...Frame) {
	key := fmt.Sprintf("%d:%s", pos, msg)
	if w.seen[key] {
		return
	}
	w.seen[key] = true
	w.report(pos, msg, path...)
}

func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func heldNames(held map[string]bool) string {
	var names []string
	for k := range held {
		names = append(names, k)
	}
	if len(names) == 0 {
		return ""
	}
	// Deterministic rendering without importing sort for two entries.
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	return strings.Join(names, ", ")
}

func (w *lockWalker) stmts(list []ast.Stmt, held map[string]bool) {
	for _, st := range list {
		w.stmt(st, held)
	}
}

func (w *lockWalker) stmt(st ast.Stmt, held map[string]bool) {
	switch st := st.(type) {
	case nil:
	case *ast.ExprStmt:
		if key, op, ok := w.lockOp(st.X); ok {
			switch op {
			case "Lock", "RLock":
				held[key] = true
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return
		}
		w.exprs(st.X, held, true)
	case *ast.DeferStmt:
		if key, op, ok := w.lockOp(st.Call); ok && (op == "Unlock" || op == "RUnlock") {
			held[key] = true // held from here to function end
			return
		}
		// A deferred call runs at return; its arguments evaluate now, and a
		// deferred literal does its own locking (fresh set).
		for _, arg := range st.Call.Args {
			w.exprs(arg, held, false)
		}
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, map[string]bool{})
		}
	case *ast.GoStmt:
		for _, arg := range st.Call.Args {
			w.exprs(arg, held, true)
		}
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, map[string]bool{})
		}
	case *ast.AssignStmt:
		w.exprs(st, held, true)
	case *ast.IncDecStmt, *ast.ReturnStmt, *ast.DeclStmt:
		w.exprs(st, held, true)
	case *ast.SendStmt:
		w.exprs(st.Chan, held, true)
		w.exprs(st.Value, held, true)
		if h := heldNames(held); h != "" {
			w.emit(st.Pos(), fmt.Sprintf("channel send while holding %s: a blocked receiver stalls every other user of the lock", h))
		}
	case *ast.IfStmt:
		w.stmt(st.Init, held)
		w.exprs(st.Cond, held, true)
		thenHeld := copyHeld(held)
		w.stmts(st.Body.List, thenHeld)
		if st.Else != nil {
			w.stmt(st.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		w.stmt(st.Init, held)
		if st.Cond != nil {
			w.exprs(st.Cond, held, true)
		}
		body := copyHeld(held)
		w.stmts(st.Body.List, body)
		w.stmt(st.Post, body)
	case *ast.RangeStmt:
		w.exprs(st.X, held, true)
		if tv, ok := w.p.Info.Types[st.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				if h := heldNames(held); h != "" {
					w.emit(st.Pos(), fmt.Sprintf("range over a channel while holding %s blocks until the channel closes", h))
				}
			}
		}
		w.stmts(st.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		w.stmt(st.Init, held)
		if st.Tag != nil {
			w.exprs(st.Tag, held, true)
		}
		for _, cc := range st.Body.List {
			clause := cc.(*ast.CaseClause)
			ch := copyHeld(held)
			for _, e := range clause.List {
				w.exprs(e, ch, true)
			}
			w.stmts(clause.Body, ch)
		}
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init, held)
		w.stmt(st.Assign, held)
		for _, cc := range st.Body.List {
			w.stmts(cc.(*ast.CaseClause).Body, copyHeld(held))
		}
	case *ast.SelectStmt:
		if h := heldNames(held); h != "" && !selectHasDefault(st) {
			w.emit(st.Pos(), fmt.Sprintf("select without a default while holding %s may block with the lock held", h))
		}
		for _, cc := range st.Body.List {
			clause := cc.(*ast.CommClause)
			ch := copyHeld(held)
			if clause.Comm != nil {
				// The comm operation itself is supervised by the select;
				// only guarded-field accesses in it are checked.
				w.exprs(clause.Comm, ch, false)
			}
			w.stmts(clause.Body, ch)
		}
	case *ast.BlockStmt:
		w.stmts(st.List, held)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, held)
	case *ast.BranchStmt, *ast.EmptyStmt:
	default:
		w.exprs(st, held, true)
	}
}

// lockOp recognizes mu.Lock()/RLock()/Unlock()/RUnlock() on a sync.Mutex
// or sync.RWMutex and returns the canonical receiver key.
func (w *lockWalker) lockOp(e ast.Expr) (key, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	tv, okT := w.p.Info.Types[sel.X]
	if !okT || !isMutexType(tv.Type) {
		return "", "", false
	}
	return exprString(w.p.Fset, sel.X), sel.Sel.Name, true
}

// exprs checks one statement's or expression's subexpressions: guarded
// accesses always, blocking operations only when checkBlock is set (comm
// clauses and deferred arguments disable it). Nested function literals are
// analyzed with a fresh lockset.
func (w *lockWalker) exprs(n ast.Node, held map[string]bool, checkBlock bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			w.stmts(x.Body.List, map[string]bool{})
			return false
		case *ast.KeyValueExpr:
			// Struct-literal keys name fields without accessing them.
			if _, isIdent := x.Key.(*ast.Ident); isIdent {
				w.exprs(x.Value, held, checkBlock)
				return false
			}
		case *ast.SelectorExpr:
			w.checkGuardedSelector(x, held)
		case *ast.Ident:
			w.checkGuardedLocal(x, held)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && checkBlock {
				if h := heldNames(held); h != "" {
					w.emit(x.Pos(), fmt.Sprintf("channel receive while holding %s blocks with the lock held", h))
				}
			}
		case *ast.CallExpr:
			if checkBlock {
				w.checkBlockingCall(x, held)
			}
		}
		return true
	})
}

func (w *lockWalker) checkGuardedSelector(sel *ast.SelectorExpr, held map[string]bool) {
	obj := w.p.Info.Uses[sel.Sel]
	if obj == nil {
		return
	}
	for _, ga := range w.s.Annos.GuardedBy {
		if ga.Local || ga.Obj != obj {
			continue
		}
		need := exprString(w.p.Fset, sel.X) + "." + ga.Mu
		if !held[need] {
			w.emit(sel.Pos(), fmt.Sprintf(
				"field %s.%s (//xui:guardedby %s) accessed without holding %s",
				ga.Owner, ga.Field, ga.Mu, need))
		}
		return
	}
}

func (w *lockWalker) checkGuardedLocal(id *ast.Ident, held map[string]bool) {
	obj := w.p.Info.Uses[id]
	if obj == nil {
		return
	}
	for _, ga := range w.s.Annos.GuardedBy {
		if !ga.Local || ga.Obj != obj {
			continue
		}
		if !held[ga.Mu] {
			w.emit(id.Pos(), fmt.Sprintf(
				"local %s (//xui:guardedby %s) accessed without holding %s",
				ga.Field, ga.Mu, ga.Mu))
		}
		return
	}
}

// checkBlockingCall flags calls that may block while a lock is held:
// recognized standard-library waits, and module functions whose mayBlock
// summary is set (reported with the witness call path).
func (w *lockWalker) checkBlockingCall(call *ast.CallExpr, held map[string]bool) {
	h := heldNames(held)
	if h == "" {
		return
	}
	if _, _, isLock := w.lockOp(call); isLock {
		return
	}
	if d, ok := stdBlockingCall(w.p, call); ok {
		w.emit(call.Pos(), fmt.Sprintf("%s while holding %s blocks with the lock held", d, h))
		return
	}
	var callee *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = w.p.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = w.p.Info.Uses[fun.Sel].(*types.Func)
	}
	if callee == nil {
		return
	}
	n := w.g.NodeOf(callee)
	if n == nil {
		return
	}
	if fact := w.blockFacts[n]; fact != nil {
		frames := blamePath(w.p.Fset, w.blockFacts, n)
		w.emit(call.Pos(), fmt.Sprintf(
			"call to %s while holding %s may block (%s, via %s): release the lock first or waive with //xui:lockok <reason>",
			n.Name, h, fact.desc, pathString(frames)), frames...)
	}
}
