package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// analyzerRecoverSafe enforces panic containment on spawned goroutines in
// Config.RecoverSafePkgs (the daemon and the sweep pool):
// a panic on a bare goroutine kills the whole process — the crash class a
// previous release fixed by hand in the sweep OnProgress path. Every go
// statement's body must therefore be *dominated* by a recover wrapper: a
// top-level `defer` whose deferred function contains a recover() call
// (directly, or via a named helper whose call tree contains one — resolved
// through the call graph), registered before any statement that can do
// real work. Findings are waivable with //xui:norecover <reason>.
func analyzerRecoverSafe() *Analyzer {
	return &Analyzer{
		Name: "recoversafe",
		Doc:  "require every spawned goroutine body to be dominated by a recover wrapper",
		run:  runRecoverSafe,
	}
}

func runRecoverSafe(s *Suite, p *Package, report func(pos token.Pos, msg string, path ...Frame)) {
	if !matchPkg(p.Path, s.Cfg.RecoverSafePkgs) {
		return
	}
	g := s.Graph()
	facts := s.recoverReach()
	for _, f := range p.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			gs, ok := node.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := goBody(p, g, gs)
			if body == nil {
				report(gs.Pos(), "go statement through a dynamic func value: the goroutine body cannot be verified for a recover wrapper (waive with //xui:norecover <reason>)")
				return true
			}
			checkRecoverDominates(p, g, facts, gs, body, report)
			return true
		})
	}
}

// recoverReach lazily computes, per function, whether its call tree
// (direct edges, no go statements) contains a recover() call.
func (s *Suite) recoverReach() map[*Node]*reachFact {
	if s.recoverFacts == nil {
		g := s.Graph()
		s.recoverFacts = g.reach(
			func(e *Edge) bool { return e.Kind == EdgeDirect && !e.GoStmt },
			func(n *Node) (string, token.Position, bool) {
				pos := findRecover(n.Pkg, n.Body(), n.Body())
				if pos == token.NoPos {
					return "", token.Position{}, false
				}
				return "recover()", n.Pkg.Fset.Position(pos), true
			},
		)
	}
	return s.recoverFacts
}

// findRecover returns the position of a recover() builtin call in body,
// excluding nested function literals (which recover for themselves, not
// for this frame).
func findRecover(p *Package, body ast.Node, root ast.Node) token.Pos {
	pos := token.NoPos
	ast.Inspect(body, func(node ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		if node != root {
			if _, ok := node.(*ast.FuncLit); ok {
				return false
			}
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" {
			if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "recover" {
				pos = call.Pos()
			}
		}
		return true
	})
	return pos
}

// goBody resolves the function body a go statement starts: a literal's
// body, or the declaration body of a statically named module function.
// nil means the callee is dynamic.
func goBody(p *Package, g *CallGraph, gs *ast.GoStmt) *ast.BlockStmt {
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			if n := g.NodeOf(fn); n != nil {
				return n.Body()
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			if n := g.NodeOf(fn); n != nil {
				return n.Body()
			}
		}
	}
	return nil
}

// checkRecoverDominates verifies the goroutine body registers a recover
// wrapper before any statement that can do real work. Declarations, simple
// assignments and other defers may precede it — they are the normal
// prelude — but any other statement means a panic could escape before the
// wrapper is armed.
func checkRecoverDominates(p *Package, g *CallGraph, facts map[*Node]*reachFact, gs *ast.GoStmt, body *ast.BlockStmt, report func(pos token.Pos, msg string, path ...Frame)) {
	for _, st := range body.List {
		d, isDefer := st.(*ast.DeferStmt)
		if !isDefer {
			switch st.(type) {
			case *ast.DeclStmt, *ast.AssignStmt, *ast.EmptyStmt:
				continue // harmless prelude
			}
			report(gs.Pos(), "goroutine body has no recover wrapper before real work: a panic here kills the whole process (add `defer func(){ if r := recover(); ... }()` first, or waive with //xui:norecover <reason>)")
			return
		}
		if deferRecovers(p, g, facts, d) {
			return // dominated: wrapper armed before any real work
		}
	}
	report(gs.Pos(), "goroutine body has no recover wrapper: a panic here kills the whole process (add `defer func(){ if r := recover(); ... }()`, or waive with //xui:norecover <reason>)")
}

// deferRecovers reports whether a defer statement arms a recover: a
// deferred literal containing recover(), or a deferred named function
// whose call tree contains one.
func deferRecovers(p *Package, g *CallGraph, facts map[*Node]*reachFact, d *ast.DeferStmt) bool {
	switch fun := ast.Unparen(d.Call.Fun).(type) {
	case *ast.FuncLit:
		// Any recover in the deferred literal counts, including one inside
		// a helper it calls.
		if findRecover(p, fun.Body, fun.Body) != token.NoPos {
			return true
		}
		if n := g.byLit[fun]; n != nil && facts[n] != nil {
			return true
		}
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			if n := g.NodeOf(fn); n != nil && facts[n] != nil {
				return true
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			if n := g.NodeOf(fn); n != nil && facts[n] != nil {
				return true
			}
		}
	}
	return false
}
