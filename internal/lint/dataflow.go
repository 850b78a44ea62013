package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The forward dataflow layer over the call graph: a "reach" fixpoint that
// propagates function-level facts (contains a nondeterminism source,
// contains a recover, may block on a channel) from callees to callers, and
// a small intraprocedural taint used by shardsafe to check that cross-shard
// delivery timestamps derive from the epoch boundary.

// reachFact records that a function's transitive call tree contains a
// source. desc and pos describe the source itself; edge is the first call
// on the witness path (nil when the function's own body is the source).
type reachFact struct {
	desc string
	pos  token.Position
	edge *Edge
}

// reach computes, for every node, whether its call tree — restricted to
// edges admitted by follow — contains a source, as judged per-body by own.
// Facts are write-once, so witness paths are acyclic even through
// recursion; the loop runs to fixpoint, one propagation step per round.
func (g *CallGraph) reach(follow func(*Edge) bool, own func(*Node) (string, token.Position, bool)) map[*Node]*reachFact {
	facts := map[*Node]*reachFact{}
	for _, n := range g.Nodes {
		if desc, pos, ok := own(n); ok {
			facts[n] = &reachFact{desc: desc, pos: pos}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if facts[n] != nil {
				continue
			}
			for _, e := range n.Out {
				if !follow(e) {
					continue
				}
				if f := facts[e.Callee]; f != nil {
					facts[n] = &reachFact{desc: f.desc, pos: f.pos, edge: e}
					changed = true
					break
				}
			}
		}
	}
	return facts
}

// blamePath renders a witness path as Frame steps: each intermediate callee
// on the way from the reported function down to the source site.
func blamePath(fset *token.FileSet, facts map[*Node]*reachFact, n *Node) []Frame {
	var frames []Frame
	f := facts[n]
	for f != nil && f.edge != nil {
		p := fset.Position(f.edge.Pos)
		frames = append(frames, Frame{
			Func: f.edge.Callee.Name,
			File: p.Filename,
			Line: p.Line,
		})
		f = facts[f.edge.Callee]
	}
	if f != nil {
		frames = append(frames, Frame{Func: f.desc, File: f.pos.Filename, Line: f.pos.Line})
	}
	return frames
}

// pathString renders a witness path for the human-readable message:
// "via A -> B -> time.Now".
func pathString(frames []Frame) string {
	s := ""
	for i, fr := range frames {
		if i > 0 {
			s += " -> "
		}
		s += fr.Func
	}
	return s
}

// exprTaint is a flow-insensitive intraprocedural taint over one function
// body: an expression is tainted when it syntactically contains a source
// (per the isSource predicate), or an identifier whose object was assigned
// a tainted expression anywhere in the body. seed pre-taints objects (used
// for forwarding parameters).
type exprTaint struct {
	p       *Package
	source  func(ast.Expr) bool
	tainted map[types.Object]bool
}

func newExprTaint(p *Package, body ast.Node, isSource func(ast.Expr) bool, seed []types.Object) *exprTaint {
	t := &exprTaint{p: p, source: isSource, tainted: map[types.Object]bool{}}
	for _, obj := range seed {
		if obj != nil {
			t.tainted[obj] = true
		}
	}
	type binding struct {
		dst types.Object
		src ast.Expr
	}
	var bindings []binding
	ast.Inspect(body, func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if dst := lhsObject(p, lhs); dst != nil {
					bindings = append(bindings, binding{dst, n.Rhs[i]})
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					if dst := p.Info.Defs[name]; dst != nil {
						bindings = append(bindings, binding{dst, n.Values[i]})
					}
				}
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, b := range bindings {
			if !t.tainted[b.dst] && t.Tainted(b.src) {
				t.tainted[b.dst] = true
				changed = true
			}
		}
	}
	return t
}

// Tainted reports whether the expression contains a source or a tainted
// identifier.
func (t *exprTaint) Tainted(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(node ast.Node) bool {
		if found {
			return false
		}
		if expr, ok := node.(ast.Expr); ok && t.source(expr) {
			found = true
			return false
		}
		if id, ok := node.(*ast.Ident); ok {
			if obj := t.p.Info.Uses[id]; obj != nil && t.tainted[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
