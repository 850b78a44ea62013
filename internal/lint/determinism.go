package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// analyzerDeterminism flags sources of run-to-run nondeterminism inside
// the simulation packages: wall-clock reads, the globally seeded math/rand
// stream, environment lookups, and iteration over maps (whose order Go
// randomizes per process). The whole runcache/sweep/check stack assumes a
// seed reproduces a byte-identical run, so any of these in a simulation
// package is a contract violation unless waived with //xui:nondet <reason>.
func analyzerDeterminism() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "forbid time.Now, global math/rand, os.Getenv and unordered map iteration in simulation packages",
		run:  runDeterminism,
	}
}

// Package-level math/rand functions that are deterministic to call: they
// build explicitly seeded generators rather than using the global stream.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func runDeterminism(s *Suite, p *Package, report func(pos token.Pos, msg string, path ...Frame)) {
	if !matchPkg(p.Path, s.Cfg.DeterminismPkgs) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondetCall(p, n, report)
			case *ast.RangeStmt:
				checkMapRange(p, n, report)
			}
			return true
		})
	}
	checkDetBoundary(s, p, report)
}

// checkDetBoundary closes the wrapper blind spot: a deterministic package
// calling a module function outside the deterministic set whose call tree
// — followed through wrappers and stored func values — contains a
// nondeterminism source is flagged at the boundary call, with the witness
// path. Calls between deterministic packages need no edge check (each
// package is checked directly); calls into the standard library are the
// intra checks' job.
func checkDetBoundary(s *Suite, p *Package, report func(pos token.Pos, msg string, path ...Frame)) {
	g := s.Graph()
	facts := s.detReach()
	seen := map[token.Pos]bool{}
	for _, n := range g.Nodes {
		if n.Pkg != p {
			continue
		}
		for _, e := range n.Out {
			if matchPkg(e.Callee.Pkg.Path, s.Cfg.DeterminismPkgs) {
				continue
			}
			fact := facts[e.Callee]
			if fact == nil || seen[e.Pos] {
				continue
			}
			seen[e.Pos] = true
			frames := append([]Frame{{
				Func: e.Callee.Name,
				File: p.Fset.Position(e.Pos).Filename,
				Line: p.Fset.Position(e.Pos).Line,
			}}, blamePath(p.Fset, facts, e.Callee)...)
			report(e.Pos, fmt.Sprintf(
				"call into non-deterministic code: %s reaches %s (via %s); a simulation package must not depend on it (waive with //xui:nondet <reason> if the result never feeds simulated state)",
				e.Callee.Name, fact.desc, pathString(frames)), frames...)
		}
	}
}

// detReach lazily computes, per function, whether its call tree contains a
// nondeterminism source (time.Now, global math/rand, os.Getenv), following
// direct and func-value edges, go statements and defers included. Sources
// already waived in place with //xui:nondet do not count.
func (s *Suite) detReach() map[*Node]*reachFact {
	if s.detFactsMap == nil {
		g := s.Graph()
		s.detFactsMap = g.reach(
			func(*Edge) bool { return true },
			func(n *Node) (string, token.Position, bool) {
				return ownNondetSource(s, n)
			},
		)
	}
	return s.detFactsMap
}

// ownNondetSource scans one function body (nested literals excluded — they
// are their own nodes) for a nondeterminism source call.
func ownNondetSource(s *Suite, n *Node) (string, token.Position, bool) {
	p := n.Pkg
	desc := ""
	var at token.Position
	ast.Inspect(n.Body(), func(node ast.Node) bool {
		if desc != "" {
			return false
		}
		if node != ast.Node(n.Body()) {
			if _, ok := node.(*ast.FuncLit); ok {
				return false
			}
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if d, ok := classifyNondet(p, call); ok {
			pos := p.Fset.Position(call.Pos())
			if s.waive("determinism", pos) {
				return true
			}
			desc, at = d, pos
		}
		return true
	})
	return desc, at, desc != ""
}

// classifyNondet names the nondeterminism source a call is, if any:
// "time.Now", "os.Getenv", "rand.Int", ...
func classifyNondet(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			return "time.Now", true
		}
	case "os":
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ":
			return "os." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			return pkgBase(fn.Pkg().Path()) + "." + fn.Name(), true
		}
	}
	return "", false
}

func checkNondetCall(p *Package, call *ast.CallExpr, report func(pos token.Pos, msg string, path ...Frame)) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // method call (e.g. (*rand.Rand).Intn is fine)
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			report(call.Pos(), "time.Now in a simulation package: simulated time must come from the Simulator clock (waive cosmetic uses with //xui:nondet <reason>)")
		}
	case "os":
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ":
			report(call.Pos(), fmt.Sprintf("os.%s in a simulation package: behavior must depend only on explicit parameters and the seed", fn.Name()))
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			report(call.Pos(), fmt.Sprintf("global %s.%s uses the shared process-wide stream: draw from the per-simulator RNG (sim.RNG) instead", pkgBase(fn.Pkg().Path()), fn.Name()))
		}
	}
}

func pkgBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// checkMapRange flags `for ... := range m` over a map. Go randomizes map
// iteration order per run, so anything the body does in sequence — append
// rows, emit metrics or trace events, accumulate floats — becomes
// nondeterministic. The one recognized-safe shape is the collect-then-sort
// idiom: a body that only appends the key to a slice.
func checkMapRange(p *Package, rs *ast.RangeStmt, report func(pos token.Pos, msg string, path ...Frame)) {
	tv, ok := p.Info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if isKeyCollection(p, rs) {
		return
	}
	report(rs.Pos(), "ranges over a map in nondeterministic order: iterate sorted keys (collect + sort first), or waive an order-independent body with //xui:nondet <reason>")
}

// isKeyCollection matches `for k := range m { s = append(s, k) }`.
func isKeyCollection(p *Package, rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if rs.Value != nil {
		if v, ok := rs.Value.(*ast.Ident); !ok || v.Name != "_" {
			return false
		}
	}
	if rs.Body == nil || len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	if b, ok := p.Info.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	dst := exprString(p.Fset, as.Lhs[0])
	if exprString(p.Fset, call.Args[0]) != dst {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && p.Info.Uses[arg] == p.Info.Defs[key]
}
